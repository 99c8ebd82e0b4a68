// Command doccheck is the CI driver behind `make doc-check`: godoc
// hygiene as a gate instead of a convention. It walks every package in
// the module and fails if any lacks a package comment; for the
// packages listed in strictPkgs it additionally requires a doc comment
// on every exported top-level symbol (types, functions, methods,
// consts, vars). Run it from the repository root.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// strictPkgs are directories (module-relative) held to the
// every-exported-symbol standard, not just the package-comment floor.
var strictPkgs = map[string]bool{
	"internal/dsr":   true,
	"internal/serve": true,
	"internal/shard": true,
}

func main() {
	problems, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck: FAIL:", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck:", p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: FAIL: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

func check(root string) ([]string, error) {
	// Collect every directory holding non-test .go files.
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)

	var problems []string
	for _, dir := range sorted {
		ps, err := checkDir(dir)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	return problems, nil
}

func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", dir, err)
	}

	rel := filepath.ToSlash(strings.TrimPrefix(dir, "./"))
	var problems []string
	for name, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasDoc = true
			}
		}
		if !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", rel, name))
		}
		if !strictPkgs[rel] {
			continue
		}
		for fname, f := range pkg.Files {
			problems = append(problems, checkExported(fset, fname, f)...)
		}
	}
	return problems, nil
}

// checkExported reports every exported top-level symbol in f that
// carries no doc comment.
func checkExported(fset *token.FileSet, fname string, f *ast.File) []string {
	var problems []string
	undocumented := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			// Methods on unexported receivers are not godoc-visible.
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			undocumented(d.Pos(), kind, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						undocumented(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil {
							undocumented(s.Pos(), d.Tok.String(), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedRecv reports whether a method receiver names an exported
// type (unwrapping the pointer star).
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return false
}
