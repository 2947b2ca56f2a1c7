package ifls

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// strictDocPackages are held to the full godoc bar: every exported
// identifier (type, func, method, var, const) must carry a doc comment,
// not just the package clause. The root package and the serving stack are
// the API surface users and operators read, so they are all in.
var strictDocPackages = []string{
	".",
	"internal/batch",
	"internal/chaos",
	"internal/difftest",
	"internal/faults",
	"internal/leakcheck",
	"internal/obs",
	"internal/server",
}

// TestPackageComments walks every Go package in the module and fails if
// any non-test package lacks a package comment. CI runs this as the lint
// gate, so a new package cannot land undocumented.
func TestPackageComments(t *testing.T) {
	for dir, pkg := range modulePackages(t) {
		if pkg.commented {
			continue
		}
		t.Errorf("package %s (%s): no package comment on any file", pkg.name, dir)
	}
}

// TestExportedDocComments enforces doc comments on every exported
// identifier in the strictDocPackages list.
func TestExportedDocComments(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range strictDocPackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				for _, miss := range undocumented(decl) {
					t.Errorf("%s: exported %s has no doc comment", fset.Position(decl.Pos()), miss)
				}
			}
		}
	}
}

// undocumented returns the names of exported identifiers declared by decl
// that lack doc comments.
func undocumented(decl ast.Decl) []string {
	var miss []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				if rn := receiverType(d.Recv.List[0].Type); rn != "" && !ast.IsExported(rn) {
					return nil // method on an unexported type: not API surface
				} else if rn != "" {
					name = rn + "." + name
				}
			}
			miss = append(miss, "func "+name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					miss = append(miss, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				// A doc comment on the grouped decl ("var ( ... )") or the
				// spec or a trailing line comment all count.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						miss = append(miss, "var/const "+n.Name)
					}
				}
			}
		}
	}
	return miss
}

// receiverType unwraps a method receiver expression to its type name.
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr:
		return receiverType(t.X)
	}
	return ""
}

// TestArchitectureEdgeList holds ARCHITECTURE.md's edge table to the
// imports the Go files declare: every package of the module has exactly one
// row, and each row lists exactly its packages' imports from this module.
// CI runs it with the doc lint, so the table cannot drift.
func TestArchitectureEdgeList(t *testing.T) {
	rows := architectureEdgeRows(t)
	for dir, pkg := range modulePackages(t) {
		if pkg.nested {
			continue // another module (bench/e2e) with its own imports
		}
		want, ok := rows[dir]
		if !ok {
			t.Errorf("ARCHITECTURE.md edge list has no row for %s", dir)
			continue
		}
		delete(rows, dir)
		var got []string
		for imp := range pkg.imports {
			got = append(got, imp)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("ARCHITECTURE.md edge list: %s imports %v, table says %v", dir, got, want)
		}
	}
	for dir := range rows {
		t.Errorf("ARCHITECTURE.md edge list names %s, which is not a package of the module", dir)
	}
}

// modulePath is the import path of the repository's root package.
const modulePath = "github.com/indoorspatial/ifls"

// importName shortens a module import path the way ARCHITECTURE.md's edge
// table spells it ("ifls" for the root, "core" for internal/core), or
// returns "" for an import from outside the module.
func importName(path string) string {
	switch {
	case path == modulePath:
		return "ifls"
	case strings.HasPrefix(path, modulePath+"/"):
		return strings.TrimPrefix(strings.TrimPrefix(path, modulePath+"/"), "internal/")
	}
	return ""
}

var (
	backticked    = regexp.MustCompile("`([^`]+)`")
	parenthetical = regexp.MustCompile(`\([^)]*\)`)
)

// architectureEdgeRows parses the edge table under "Full edge list" in
// ARCHITECTURE.md into package directory → sorted import names. A row's
// first cell names one or more packages in backticks; its second lists
// their imports separated by commas or "+", with "—" for none, and any
// parenthesized remark ignored.
func architectureEdgeRows(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "Full edge list")
	if !ok {
		t.Fatal(`ARCHITECTURE.md: no "Full edge list" table`)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n")[1:] {
		if line == "" && len(rows) > 0 {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) != 4 || !strings.Contains(cells[1], "`") {
			continue // header, separator or the text before the table
		}
		var imports []string
		for _, f := range strings.FieldsFunc(parenthetical.ReplaceAllString(cells[2], ""), func(r rune) bool { return r == ',' || r == '+' }) {
			if f = strings.TrimSpace(f); f != "—" {
				imports = append(imports, f)
			}
		}
		slices.Sort(imports)
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			dir := m[1]
			if dir == "ifls" {
				dir = "."
			}
			if _, dup := rows[dir]; dup {
				t.Errorf("ARCHITECTURE.md edge list: %s has two rows", dir)
			}
			rows[dir] = imports
		}
	}
	return rows
}

// pkgDoc records a package's name, whether any of its files carries a
// package comment, the module packages its files import (by importName),
// and whether it belongs to a nested module.
type pkgDoc struct {
	name      string
	commented bool
	imports   map[string]bool
	nested    bool
}

// nestedModule reports whether dir lies in a module other than the root
// one: some directory from dir up to, but not including, the root holds a
// go.mod.
func nestedModule(dir string) bool {
	for d := dir; d != "."; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

// modulePackages parses every non-test Go file under the module root and
// aggregates per-directory package-comment status and imports.
func modulePackages(t *testing.T) map[string]*pkgDoc {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*pkgDoc{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		p, ok := pkgs[dir]
		if !ok {
			p = &pkgDoc{name: f.Name.Name, imports: map[string]bool{}, nested: nestedModule(dir)}
			pkgs[dir] = p
		}
		if f.Doc != nil {
			p.commented = true
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if name := importName(path); name != "" {
				p.imports[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// retiredIflsdFlags are iflsd flags that were deleted when their policy
// became fixed: coalescing always on, a 100ms reap grace, Retry-After 1,
// and index builds as wide as GOMAXPROCS.
var retiredIflsdFlags = []string{"no-coalesce", "reap-grace", "retry-after", "workers"}

// TestIflsdFlagsDocumented holds SERVING.md to the flags cmd/iflsd
// registers: every one appears there as -name, and no retired flag appears
// in SERVING.md or README.md. CI runs it with the doc lint.
func TestIflsdFlagsDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "iflsd", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0 // flag.Int("name", ...); flag.IntVar(&v, "name", ...)
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags = append(flags, name)
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatal("cmd/iflsd/main.go: no flag registrations found")
	}
	mentions := func(doc, name string) bool {
		return regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`).MatchString(doc)
	}
	docs := map[string]string{}
	for _, path := range []string{"SERVING.md", "README.md"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = string(b)
	}
	for _, name := range flags {
		if slices.Contains(retiredIflsdFlags, name) {
			t.Errorf("cmd/iflsd registers the retired flag -%s", name)
		}
		if !mentions(docs["SERVING.md"], name) {
			t.Errorf("SERVING.md does not document iflsd's -%s flag", name)
		}
	}
	for path, doc := range docs {
		for _, name := range retiredIflsdFlags {
			if mentions(doc, name) {
				t.Errorf("%s mentions the retired iflsd flag -%s", path, name)
			}
		}
	}
}
