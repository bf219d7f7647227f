// The dead-surface gate: every top-level declaration under internal/
// and in hana.go must be reached from a program (cmd/*, examples/*,
// benchmark), not only from tests. DESIGN.md "The dead-surface gate"
// gives the rules and how to add an allowlist entry.
package hana_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllow lists the declarations no program reaches that stay
// anyway, each with its reason. A key is a declaration as the gate
// prints it, or a package path that covers every declaration in it.
// Entries are roots: what they reach is not reported either.
var deadSurfaceAllow = map[string]string{
	"internal/l2delta.Store.CheckInvariants":   "ROADMAP item 6: the correctness harness checks store invariants after every step; l2delta tests today",
	"internal/mainstore.Store.CheckInvariants": "ROADMAP item 6: the correctness harness checks store invariants after every step; mainstore and merge tests today",
	"internal/core.Table.GlobalSortedDict":     "DESIGN §5 E12: TestGlobalSortedDict checks one sorted dictionary across L1, L2 and main",
	"internal/mainstore.Store.GlobalDict":      "DESIGN §5 E12: the main chain's share of Table.GlobalSortedDict",
	"internal/calc.Graph.Split":                "DESIGN §5 E11: TestSplitCombineParallelism, TestSplitPartitionsAreDisjointAndComplete",
	"internal/calc.Graph.Combine":              "DESIGN §5 E11: TestSplitCombineParallelism, TestSplitPartitionsAreDisjointAndComplete",
	"internal/calc.Graph.Values":               "DESIGN §5 E11: the literal inputs of TestStarJoinNode and TestSharedSubexpressionEvaluatedOnce",
	"internal/calc.Graph.Union":                "DESIGN §5 E11: TestSharedSubexpressionEvaluatedOnce unions two consumers of one shared node",
	"internal/calc.Graph.TableAsOf":            "ROADMAP item 12: SELECT ... AS OF lowers to this node; TestFusedAggregateRule plans it today",
	"internal/experiments/rowstore":            "ROADMAP item 10(c): the row-store comparator moves into benchmark/ or is deleted",
	"internal/client.Client.DoRetry":           "cmd/hanaserver's wire-driver and chaos tests redeliver over fresh connections; client tests pin the retry contract",
	"internal/client.Client.DoRetryOK":         "cmd/hanaserver's wire-driver and chaos tests redeliver over fresh connections; client tests pin the retry contract",
}

// deadSurfaceExempt are the test-support packages: only tests import
// them, by design.
var deadSurfaceExempt = []string{
	"internal/vfs", "internal/netfault", "internal/leakcheck", "internal/torture",
}

func TestNoDeadSurface(t *testing.T) {
	g, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := g.check(deadSurfaceExempt, deadSurfaceAllow)
	if len(dead) > 0 {
		t.Errorf("declarations no program reaches (%d):\n%s", len(dead), deadSurfaceReport(dead))
	}
	if len(stale) > 0 {
		t.Errorf("stale allowlist entries (reached by a program, or gone); delete them from deadSurfaceAllow:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
}

// TestDeadSurfaceRules pins the gate's rules on the fixture module in
// testdata/deadsurface.
func TestDeadSurfaceRules(t *testing.T) {
	g, err := loadSurface(filepath.Join("testdata", "deadsurface"))
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := g.check([]string{"internal/helper"}, map[string]string{
		"internal/lib.Hook":    "kept for a test",
		"internal/lib.Used":    "reached by the program, so stale",
		"internal/lib.Missing": "declared nowhere, so stale",
	})
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{
		"internal/lib.Square.Perimeter", // a method no interface asks for
		"internal/lib.Unused",           // an exported function with no caller
		"internal/lib.deadCaller",       // its only caller is itself dead...
		"internal/lib.onlyFromDead",     // ...so this one is dead too
		"internal/lib.onlyTested",       // called only from lib_test.go
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead = %q, want %q", got, want)
	}
	if want := []string{"internal/lib.Missing", "internal/lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
	msg := deadSurfaceReport(dead)
	for _, s := range []string{"lib.go:", "delete it", "export_test.go", "deadSurfaceAllow"} {
		if !strings.Contains(msg, s) {
			t.Errorf("report lacks %q:\n%s", s, msg)
		}
	}
}

// surfaceDecl is one top-level declaration: a function, method, type,
// var or const.
type surfaceDecl struct {
	name string // "internal/core.Table.Get"; root-package names start "hana."
	pkg  string // module-relative package path; "hana" for the root
	pos  token.Position
	main bool // declared in a main package: a root
	refs []types.Object
}

type surface struct {
	root   string // the module directory, which positions are relative to
	decls  map[types.Object]*surfaceDecl
	ifaces []*types.Interface // interfaces a value may be called through
	named  []*types.TypeName  // module types whose methods the ifaces may reach
}

// loadSurface type-checks the non-test files of every package of the
// module at dir, in dependency order, and records each top-level
// declaration with the module declarations it references.
func loadSurface(dir string) (*surface, error) {
	// One go list call names every package file and, for the standard
	// library, its compiled export data; the interface packages of
	// externalInterfaces are listed too, whether or not the module
	// imports them.
	args := append([]string{"list", "-deps", "-export", "-json", "./..."}, externalIfacePkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Name, Export string
		GoFiles                       []string
		Standard                      bool
		Module                        *struct{ Path string }
	}
	var pkgs []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			pkgs = append(pkgs, p)
		}
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	g := &surface{root: root, decls: map[types.Object]*surfaceDecl{}}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/")
		if rel == "" {
			rel = p.Name
		}
		for _, f := range files {
			g.addFile(f, info, fset, rel, p.Name == "main")
		}
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			g.named = append(g.named, tn)
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				g.ifaces = append(g.ifaces, it)
			}
		}
	}
	extra, err := externalInterfaces(std)
	if err != nil {
		return nil, err
	}
	g.ifaces = append(g.ifaces, extra...)
	return g, nil
}

func (g *surface) addFile(f *ast.File, info *types.Info, fset *token.FileSet, pkg string, main bool) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		name := pkg + "." + id.Name
		if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv != nil {
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			name = pkg + "." + recv.(*ast.Ident).Name + "." + id.Name
		}
		pos := fset.Position(id.Pos())
		if rel, err := filepath.Rel(g.root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		d := &surfaceDecl{name: name, pkg: pkg, pos: pos, main: main || id.Name == "init"}
		ast.Inspect(node, func(n ast.Node) bool {
			if use, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[use]; obj != nil {
					d.refs = append(d.refs, origin(obj))
				}
			}
			return true
		})
		g.decls[obj] = d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			add(decl.Name, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, spec)
					}
				}
			}
		}
	}
}

// externalIfacePkgs are the standard packages whose interfaces
// externalInterfaces collects.
var externalIfacePkgs = []string{"fmt", "sort", "io", "context", "container/heap"}

// externalInterfaces are the interfaces outside the module through
// which the standard library calls a module method: error, the
// interfaces of fmt, sort, io, context and container/heap, and the
// Is/As/Unwrap methods errors looks for.
func externalInterfaces(std types.Importer) ([]*types.Interface, error) {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, path := range externalIfacePkgs {
		p, err := std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	const errorsIfaces = `package errorsifaces
type (
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", errorsIfaces, 0)
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{}).Check("errorsifaces", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range p.Scope().Names() {
		out = append(out, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out, nil
}

// check returns the declarations outside main packages and the exempt
// packages that no root reaches, and the allowlist entries that have
// gone stale: reached from the programs alone, or naming nothing.
func (g *surface) check(exempt []string, allow map[string]string) (dead []*surfaceDecl, stale []string) {
	allowed := func(d *surfaceDecl) bool {
		_, ok := allow[d.name]
		_, pkgOK := allow[d.pkg]
		return ok || pkgOK
	}
	fromPrograms := g.reach(func(d *surfaceDecl) bool { return d.main })
	withAllow := g.reach(func(d *surfaceDecl) bool { return d.main || allowed(d) })
	hit := map[string]bool{} // allowlist entries that still name a dead declaration
	for obj, d := range g.decls {
		if d.main || slices.Contains(exempt, d.pkg) {
			continue
		}
		if !fromPrograms[obj] {
			hit[d.name], hit[d.pkg] = true, true
		}
		if !withAllow[obj] {
			dead = append(dead, d)
		}
	}
	for key := range allow {
		if !hit[key] { // a key is stale unless it names a declaration the programs do not reach
			stale = append(stale, key)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	sort.Strings(stale)
	return dead, stale
}

// reach marks every declaration reachable from the roots. A method is
// also reached when its receiver type is, and that type or a pointer
// to it implements an interface that has the method.
func (g *surface) reach(root func(*surfaceDecl) bool) map[types.Object]bool {
	seen := map[types.Object]bool{}
	done := map[*types.TypeName]bool{} // reached types whose interface methods are marked
	var stack []types.Object
	visit := func(obj types.Object) {
		if _, ok := g.decls[obj]; ok && !seen[obj] {
			seen[obj] = true
			stack = append(stack, obj)
		}
	}
	for obj, d := range g.decls {
		if root(d) {
			visit(obj)
		}
	}
	for len(stack) > 0 {
		for len(stack) > 0 {
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ref := range g.decls[obj].refs {
				visit(ref)
			}
		}
		for _, tn := range g.named {
			if !seen[tn] || done[tn] {
				continue
			}
			done[tn] = true
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for _, it := range g.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						visit(origin(sel.Obj()))
					}
				}
			}
		}
	}
	return seen
}

func deadSurfaceReport(dead []*surfaceDecl) string {
	var b strings.Builder
	for _, d := range dead {
		fmt.Fprintf(&b, "\t%s:%d: %s\n", d.pos.Filename, d.pos.Line, d.name)
	}
	b.WriteString("No non-test file of cmd/*, examples/* or benchmark reaches these. For each one:\n" +
		"\tdelete it;\n" +
		"\tor move it to an export_test.go, or into the one test package that uses it;\n" +
		"\tor add it to deadSurfaceAllow in deadsurface_test.go with the reason it stays.\n")
	return b.String()
}

func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
