// Package leantest holds the reachability gate: a go/types pass over the
// module that fails when a shipped package declares code no program
// runs. The package has test files only, so it ships nothing itself.
package leantest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// rules says where a module's roots are.
type rules struct {
	// programs are module-relative directories; every main function in
	// a package under one of them is a root. Every init is a root
	// wherever it is, since it runs whenever its package is linked in.
	programs []string
	// unchecked are module-relative directories whose declarations are
	// read and walked but never reported.
	unchecked []string
	// facade is the module-relative directory of the public package
	// ("." for the module root). Its exported declarations are roots, and
	// so are the exported method sets of the module types it re-exports
	// by alias, one level deep.
	facade string
	// harnesses are module-relative package directories whose every
	// declaration is a root: non-test packages that only tests import.
	harnesses []string
}

// pkg is one type-checked package of the module, test files excluded.
type pkg struct {
	rel   string // module-relative directory, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// decl is one package-level declaration: a func, a method, or one name of
// a type, var or const spec.
type decl struct {
	pkg  *pkg
	obj  types.Object
	node ast.Node // walked when the declaration is reached
	key  string   // "rel.Name" or "rel.Type.Method"
	pos  token.Position
	root bool
}

// module loads every non-test package under root, type-checking the
// module's own packages from source and the standard library with the
// offline "source" importer.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*pkg // by import path
	order      []*pkg
}

func loadModule(root string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var path string
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			path = strings.TrimSpace(p)
		}
	}
	if path == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	// The source importer would run cgo for std packages with C files;
	// their pure-Go variants declare the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{root: root, path: path, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*pkg{}}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		if _, err := m.load(m.importPath(filepath.ToSlash(rel))); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *module) importPath(rel string) string {
	if rel == "." {
		return m.path
	}
	return m.path + "/" + rel
}

// Import resolves module paths to their directories and everything else
// through the standard-library importer.
func (m *module) Import(path string) (*types.Package, error) {
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return m.std.Import(path)
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("no Go files for %s", path)
	}
	return p.types, nil
}

// load parses and type-checks the package at path; nil for a directory
// with no non-test Go files.
func (m *module) load(path string) (*pkg, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/")
	if rel == "" {
		rel = "."
	}
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		m.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkg{rel: rel, files: files, types: tp, info: info}
	m.pkgs[path] = p
	m.order = append(m.order, p)
	return p, nil
}

// under reports whether the module-relative dir rel is one of dirs or
// below one of them.
func under(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic func to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// analysis holds a loaded module's package-level declarations and the
// roots that rules r give them.
type analysis struct {
	m     *module
	r     rules
	decls map[types.Object]*decl
	// all are the checked declarations (those under r.unchecked are left
	// out), sorted by position; byKey indexes them.
	all   []*decl
	byKey map[string]*decl
	// ifaceNames holds the method names that some interface can call: see
	// interfaceNames.
	ifaceNames map[string]bool
}

func (m *module) analyze(r rules) *analysis {
	a := &analysis{m: m, r: r, decls: map[types.Object]*decl{}, byKey: map[string]*decl{}}
	a.collect()
	a.interfaceNames()
	for _, d := range a.decls {
		if !under(d.pkg.rel, r.unchecked) {
			a.all = append(a.all, d)
			a.byKey[d.key] = d
		}
	}
	sort.Slice(a.all, func(i, j int) bool {
		pi, pj := a.all[i].pos, a.all[j].pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return a
}

// unreached returns the checked declarations that neither the roots nor
// the declarations named in kept reach, in position order.
func (a *analysis) unreached(kept map[string]bool) []*decl {
	reached := a.reachable(kept)
	var out []*decl
	for _, d := range a.all {
		if !reached[d] {
			out = append(out, d)
		}
	}
	return out
}

// reachable returns every declaration that the roots and the declarations
// named in kept reach.
func (a *analysis) reachable(kept map[string]bool) map[*decl]bool {
	w := &walker{a: a, reached: map[*decl]bool{}}
	for _, d := range a.decls {
		if d.root || kept[d.key] {
			w.reach(d)
		}
	}
	w.facadeMethods()
	for len(w.queue) > 0 {
		d := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.walk(d)
	}
	return w.reached
}

// walker is one reachability pass.
type walker struct {
	a       *analysis
	reached map[*decl]bool
	queue   []*decl
}

// collect records every package-level declaration and marks the roots.
func (a *analysis) collect() {
	for _, p := range a.m.order {
		program := under(p.rel, a.r.programs)
		harness := under(p.rel, a.r.harnesses)
		facade := p.rel == a.r.facade
		add := func(id *ast.Ident, node ast.Node, key string, root bool) {
			obj := p.info.Defs[id]
			root = root || id.Name == "_" || harness || (facade && id.IsExported())
			a.decls[obj] = &decl{pkg: p, obj: obj, node: node, key: p.rel + "." + key,
				pos: a.m.fset.Position(id.Pos()), root: root}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						add(d.Name, d, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, false)
						continue
					}
					// An init runs whenever its package is linked in.
					add(d.Name, d, d.Name.Name, d.Name.Name == "init" || program && d.Name.Name == "main")
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, s.Name.Name, false)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, s, n.Name, false)
							}
						}
					}
				}
			}
		}
	}
}

// recvName returns the base type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// interfaceNames collects the method names of every interface type the
// module mentions and of every exported interface declared in the
// importable standard packages it imports, transitively. Unexported and
// internal standard interfaces are left out: they come and go between Go
// releases (encoding/json's isZeroer arrived with omitzero in Go 1.24),
// which would make the verdict depend on the toolchain.
func (a *analysis) interfaceNames() {
	a.ifaceNames = map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				a.ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] || internalPath(tp.Path()) {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range a.m.order {
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, imp := range p.types.Imports() {
			if _, ok := a.m.pkgs[imp.Path()]; !ok {
				visit(imp)
			}
		}
	}
}

// internalPath reports whether a standard package path is internal or
// vendored, so no module code can import it.
func internalPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" || seg == "vendor" {
			return true
		}
	}
	return false
}

// facadeMethods roots the exported methods of each module type the facade
// re-exports by alias, including methods promoted from embedded fields.
func (w *walker) facadeMethods() {
	for _, p := range w.a.m.order {
		if p.rel != w.a.r.facade {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() || !tn.Exported() {
				continue
			}
			named, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				if f := ms.At(i).Obj(); f.Exported() {
					if d := w.a.decls[origin(f)]; d != nil {
						w.reach(d)
					}
				}
			}
		}
	}
}

func (w *walker) reach(d *decl) {
	if w.reached[d] {
		return
	}
	w.reached[d] = true
	w.queue = append(w.queue, d)
	tn, ok := d.obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	for i := 0; i < named.NumMethods(); i++ {
		f := named.Method(i)
		if w.a.ifaceNames[f.Name()] {
			if md := w.a.decls[f]; md != nil {
				w.reach(md)
			}
		}
	}
}

// walk reaches every declaration that d's source refers to.
func (w *walker) walk(d *decl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := d.pkg.info.Uses[id]; obj != nil {
			if u := w.a.decls[origin(obj)]; u != nil {
				w.reach(u)
			}
		}
		return true
	})
}
