package bepi

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// callerlessAllowed lists the exported names under internal/ that may have
// no caller, each with the reason it stays. Keys are "pkg.Name" or
// "pkg.Type.Method", pkg being the path below the module.
var callerlessAllowed = map[string]string{
	"internal/core.PreprocessWithOrdering": "the reference build the delta contract compares ApplyDelta against",
	"internal/core.ChooseHubRatio":         "waits on the per-graph hub-ratio item",
	"internal/core.ChooseHubRatioPool":     "waits on the per-graph hub-ratio item",
	"internal/cluster.NewLocalBackend":     "an in-process backend, the test fake for the coordinator",
	"internal/solver.StopNone":             "the zero value of the StopReason enum",
	"internal/lu.SparseLU.Factors":         "test oracle for the sparse LU factorization",
	"internal/lu.ILU.Product":              "test oracle for the DILU factorization",
}

// TestEveryExportHasACaller fails on an exported declaration under
// internal/ that nothing calls. A name counts as used when it is referenced
// from non-test code outside the declarations that are themselves unused,
// from a test of another package, or when it is a method that satisfies an
// interface. Its own package's tests do not count: they test the name, they
// do not need it.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t, ".")
	// What the allowlisted names reference is used through them.
	var kept []string
	for k := range callerlessAllowed {
		kept = append(kept, k)
	}
	if bad := m.callerless(kept); len(bad) > 0 {
		t.Errorf("exported names under internal/ with no caller (delete them, or give them a caller):\n\t%s",
			strings.Join(bad, "\n\t"))
	}
	isUnused := map[string]bool{}
	for _, k := range m.callerless(nil) {
		isUnused[k] = true
	}
	for k := range callerlessAllowed {
		if !m.decls[k] {
			t.Errorf("allowlisted %s is not an exported declaration any more", k)
		} else if !isUnused[k] {
			t.Errorf("allowlisted %s has a caller now; drop it from the allowlist", k)
		}
	}
}

// module is the type-checked module: every package with its tests.
type module struct {
	path  string          // module path, from go.mod
	decls map[string]bool // exported declarations under internal/
	// uses maps a declaration's key to the keys it references. The key ""
	// stands for every reference that counts unconditionally.
	uses      map[string]map[string]bool
	methods   map[string]*types.Func // exported methods under internal/, by key
	ifaces    map[*types.Interface]bool
	fset      *token.FileSet
	pkgs      map[string]*types.Package // non-test packages, by import path
	stdImport types.Importer
}

type pkgFiles struct {
	src, inTests, extTests []*ast.File
}

func loadModule(t *testing.T, root string) *module {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	fset := token.NewFileSet()
	dirs := map[string]*pkgFiles{}
	std := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, is := range f.Imports {
			if ip := strings.Trim(is.Path.Value, `"`); ip != modPath && !strings.HasPrefix(ip, modPath+"/") {
				std[ip] = true
			}
		}
		dir := filepath.Dir(p)
		pf := dirs[dir]
		if pf == nil {
			pf = &pkgFiles{}
			dirs[dir] = pf
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			pf.src = append(pf.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pf.extTests = append(pf.extTests, f)
		default:
			pf.inTests = append(pf.inTests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		path:    modPath,
		decls:   map[string]bool{},
		uses:    map[string]map[string]bool{},
		methods: map[string]*types.Func{},
		ifaces:  map[*types.Interface]bool{},
		fset:    fset,
		pkgs:    map[string]*types.Package{},
	}
	var stdPaths []string
	for ip := range std {
		stdPaths = append(stdPaths, ip)
	}
	m.stdImport = importer.ForCompiler(fset, "gc", stdExports(t, stdPaths))
	byPath := map[string]*pkgFiles{}
	for dir, pf := range dirs {
		rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(dir, root)))
		rel = strings.TrimPrefix(rel, "/")
		path := modPath
		if rel != "." && rel != "" {
			path = modPath + "/" + rel
		}
		byPath[path] = pf
	}
	// Non-test packages first, in import order: the importer checks a
	// package the first time it is asked for.
	var check func(path string) (*types.Package, error)
	var imp importerFunc = func(path string) (*types.Package, error) {
		if _, ok := byPath[path]; ok {
			return check(path)
		}
		return m.stdImport.Import(path)
	}
	check = func(path string) (*types.Package, error) {
		if p := m.pkgs[path]; p != nil {
			return p, nil
		}
		pf := byPath[path]
		if len(pf.src) == 0 {
			return nil, fmt.Errorf("%s has no non-test files", path)
		}
		p, err := m.typeCheck(path, pf.src, imp, false)
		if err != nil {
			return nil, err
		}
		m.pkgs[path] = p
		return p, nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if len(byPath[path].src) > 0 {
			if _, err := check(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Then each package with its in-package tests, and its external tests:
	// a test's references to its own package do not count.
	for _, path := range paths {
		pf := byPath[path]
		if len(pf.inTests) > 0 {
			files := append(append([]*ast.File(nil), pf.src...), pf.inTests...)
			if _, err := m.typeCheck(path, files, imp, true); err != nil {
				t.Fatal(err)
			}
		}
		if len(pf.extTests) > 0 {
			if _, err := m.typeCheck(path+"_test", pf.extTests, imp, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// stdExports returns a lookup of the standard packages' export data, found
// by one `go list` rather than one per package.
func stdExports(t *testing.T, imports []string) importer.Lookup {
	t.Helper()
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, imports...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	files := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		if path, file, ok := strings.Cut(line, "="); ok {
			files[path] = file
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck checks one package and records its declarations (non-test
// packages only), its references and the interfaces it mentions.
func (m *module) typeCheck(path string, files []*ast.File, imp types.Importer, test bool) (*types.Package, error) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, tv := range info.Types {
		m.noteInterface(tv.Type)
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			m.noteInterface(tn.Type())
		}
	}
	for _, ip := range pkg.Imports() {
		if _, ours := m.pkgs[ip.Path()]; ours {
			continue
		}
		for _, name := range ip.Scope().Names() {
			if tn, ok := ip.Scope().Lookup(name).(*types.TypeName); ok {
				m.noteInterface(tn.Type())
			}
		}
	}
	own := strings.TrimSuffix(path, "_test")
	for _, f := range files {
		isTest := strings.HasSuffix(m.fset.Position(f.Pos()).Filename, "_test.go")
		if test && !isTest {
			continue // already recorded by the non-test check
		}
		for _, decl := range f.Decls {
			froms := m.declKeys(decl, info, !isTest)
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				to := m.key(info.Uses[id])
				if to == "" {
					return true
				}
				if isTest {
					// A test counts only for another package's names.
					if !strings.HasPrefix(to, own+".") {
						m.use("", to)
					}
					return true
				}
				for _, from := range froms {
					if from != to {
						m.use(from, to)
					}
				}
				return true
			})
		}
	}
	return pkg, nil
}

func (m *module) use(from, to string) {
	if m.uses[from] == nil {
		m.uses[from] = map[string]bool{}
	}
	m.uses[from][to] = true
}

func (m *module) noteInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		m.ifaces[it] = true
	}
}

// declKeys returns the keys of the exported internal/ declarations that decl
// declares, recording them; a declaration that declares anything else (an
// unexported name, a blank var, init) yields "", whose references always
// count.
func (m *module) declKeys(decl ast.Decl, info *types.Info, record bool) []string {
	var objs []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		objs = append(objs, info.Defs[d.Name])
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				objs = append(objs, info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, n := range s.Names {
					objs = append(objs, info.Defs[n])
				}
			}
		}
	}
	var keys []string
	for _, obj := range objs {
		k := m.key(obj)
		if k == "" || !obj.Exported() || !strings.HasPrefix(k, m.path+"/internal/") {
			return []string{""}
		}
		if record {
			m.decls[m.short(k)] = true
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				m.methods[k] = fn
			}
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return []string{""}
	}
	return keys
}

// key names a package-level object or a method of a named type as
// "path.Name" or "path.Type.Method"; anything else in the module, or any
// object outside it, gives "".
func (m *module) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	path := obj.Pkg().Path()
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // an interface's own method
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

func (m *module) short(k string) string { return strings.TrimPrefix(k, m.path+"/") }

// callerless returns the recorded declarations that nothing uses, kept
// excepted, sorted. Used is the least fixed point: kept, the names
// referenced unconditionally, the methods that satisfy an interface, and
// whatever a used declaration references.
func (m *module) callerless(kept []string) []string {
	used := map[string]bool{}
	var mark func(k string)
	mark = func(k string) {
		if used[k] {
			return
		}
		used[k] = true
		for to := range m.uses[k] {
			mark(to)
		}
	}
	for _, k := range kept {
		mark(m.path + "/" + k)
	}
	for to := range m.uses[""] {
		mark(to)
	}
	for k, fn := range m.methods {
		if m.satisfiesInterface(fn) {
			mark(k)
		}
	}
	var out []string
	for k := range m.decls {
		if !used[m.path+"/"+k] && !slices.Contains(kept, k) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// satisfiesInterface reports whether fn's receiver type implements some
// interface the module mentions that has a method of fn's name.
func (m *module) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for it := range m.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
