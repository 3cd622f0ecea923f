package repro_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stdCalled names the methods the standard library calls through its
// own interfaces (sort, fmt, error, io, encoding/json, heap): no file
// of this module names them, yet they run.
var stdCalled = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// surface type-checks every package of the module from source, once,
// sharing one types.Info so a function is the same object wherever it
// is named. Test files are left out, except the two the benchmark
// compiles: everything under bench/ and the root bench_test.go.
type surface struct {
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package // by import path
	file map[string][]*ast.File
}

func (s *surface) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	return s.load(path, filepath.Join(".", strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")), "")
}

// load checks the files of dir that belong to package pkgName ("" takes
// the directory's non-test package).
func (s *surface) load(path, dir, pkgName string) (*types.Package, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range names {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		test := strings.HasSuffix(n, "_test.go")
		if test && pkgName == "" && dir != "bench" {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName != "" && f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.file[path] = p, files
	return p, nil
}

// recvName is the name of the type f is a method of, "" for a function.
func recvName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

var (
	moduleOnce sync.Once
	module     *surface
	moduleErr  error
)

// loadModule type-checks the module once for every test in this file.
func loadModule(t *testing.T) *surface {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	moduleOnce.Do(func() {
		s := &surface{
			fset: token.NewFileSet(),
			info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
			pkgs: map[string]*types.Package{},
			file: map[string][]*ast.File{},
		}
		s.std = importer.ForCompiler(s.fset, "source", nil)
		moduleErr = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if m, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(m) == 0 {
				return nil
			}
			_, err = s.Import(filepath.ToSlash(filepath.Join("repro", dir)))
			return err
		})
		if moduleErr == nil {
			_, moduleErr = s.load("repro_test", ".", "repro_test")
		}
		module = s
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// allowList reads a name<TAB>reason file, sorted by name. Each name
// maps to false until the caller marks it used; allowStale then fails
// for every line left unused.
func allowList(t *testing.T, path string) map[string]bool {
	t.Helper()
	af, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	allow := map[string]bool{}
	prev := ""
	for sc := bufio.NewScanner(af); sc.Scan(); {
		name, reason, ok := strings.Cut(sc.Text(), "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q is not name<TAB>reason", path, sc.Text())
		}
		if name <= prev {
			t.Errorf("%s: %q is out of order", path, name)
		}
		allow[name], prev = false, name
	}
	return allow
}

func allowStale(t *testing.T, path string, allow map[string]bool, what string) {
	t.Helper()
	var stale []string
	for name, used := range allow {
		if !used {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: %s is not %s any more; drop the line", path, name, what)
	}
}

// TestExportedSurfaceHasCallers keeps the API the size of what runs: an
// exported function or method under internal/ that nothing but a
// _test.go file can reach is either deleted or carries a reason in
// scripts/testonly.allow. Reachability starts at every main and init,
// every package-level initialiser, everything the benchmark compiles
// (bench/, bench_test.go), and follows interface methods by name.
func TestExportedSurfaceHasCallers(t *testing.T) {
	s := loadModule(t)

	// calls[f] is what f's declaration names; calls[nil] is what the
	// roots name. An interface method stands for every method of its name.
	calls := map[*types.Func][]*types.Func{}
	byName := map[string][]*types.Func{}
	var declared []*types.Func
	for path, files := range s.file {
		rootPkg := path == "repro/bench" || path == "repro_test"
		for _, f := range files {
			for _, d := range f.Decls {
				var from *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					from = s.info.Defs[fd.Name].(*types.Func)
					declared = append(declared, from)
					if fd.Recv != nil {
						byName[from.Name()] = append(byName[from.Name()], from)
					}
					if rootPkg || fd.Recv == nil && (from.Name() == "init" || from.Name() == "main" && f.Name.Name == "main") {
						calls[nil] = append(calls[nil], from)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if to, ok := s.info.Uses[id].(*types.Func); ok {
							calls[from] = append(calls[from], to.Origin())
						}
					}
					return true
				})
			}
		}
	}
	reached := map[*types.Func]bool{}
	named := map[string]bool{}
	work := calls[nil]
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[f] {
			continue
		}
		reached[f] = true
		work = append(work, calls[f]...)
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !named[f.Name()] {
			named[f.Name()] = true
			work = append(work, byName[f.Name()]...)
		}
	}

	allow := allowList(t, "scripts/testonly.allow")
	var unlisted []string
	for _, f := range declared {
		recv := recvName(f)
		if !strings.HasPrefix(f.Pkg().Path(), "repro/internal/") || !f.Exported() || reached[f] ||
			recv != "" && (stdCalled[f.Name()] || !ast.IsExported(recv)) {
			continue // a method of an unexported type is reached through an interface or not at all
		}
		// The allow-list's spelling: the package's path under internal/,
		// then Name or Recv.Name.
		pkg := strings.TrimPrefix(f.Pkg().Path(), "repro/internal/")
		name := pkg + "." + f.Name()
		if recv != "" {
			name = pkg + "." + recv + "." + f.Name()
		}
		if _, ok := allow[pkg]; ok {
			allow[pkg] = true
		} else if _, ok := allow[name]; ok {
			allow[name] = true
		} else {
			unlisted = append(unlisted, name)
		}
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		t.Errorf("%s is exported and only _test.go files reach it: delete it, or give scripts/testonly.allow the reason it stays", name)
	}
	allowStale(t, "scripts/testonly.allow", allow, "a test-only exported function")
	t.Logf("%d allow-list lines, %d test-only exported names not on it", len(allow), len(unlisted))
}

// fieldSetters maps each struct field the module load sets to the files
// that set it. A field is set by a composite-literal key, an assignment
// or increment, or by taking its address (a flag bound to it), in any
// file the load holds: every non-test file, bench/ and the root
// bench_test.go.
func fieldSetters(s *surface) map[*types.Var]map[string]bool {
	set := map[*types.Var]map[string]bool{}
	for _, files := range s.file {
		for _, f := range files {
			file := s.fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					lhs = []ast.Expr{n.Key}
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs = []ast.Expr{n.X}
					}
				}
				for _, e := range lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						e = sel.Sel
					}
					id, ok := e.(*ast.Ident)
					if !ok {
						continue
					}
					if v, ok := s.info.Uses[id].(*types.Var); ok && v.IsField() {
						if set[v] == nil {
							set[v] = map[string]bool{}
						}
						set[v][file] = true
					}
				}
				return true
			})
		}
	}
	return set
}

// TestConfigFieldsHaveSetters keeps every knob a knob: an exported field
// of a *Config struct under internal/ that only its own declaring file
// and _test.go files set has one value in use, its default, and becomes
// a constant, unless scripts/knobs.allow gives the reason it stays
// (fieldSetters says what sets a field).
func TestConfigFieldsHaveSetters(t *testing.T) {
	s := loadModule(t)
	setters := fieldSetters(s)

	allow := allowList(t, "scripts/knobs.allow")
	set := map[*types.Var]bool{}
	for v, files := range setters {
		own := s.fset.Position(v.Pos()).Filename
		set[v] = len(files) > 1 || !files[own]
	}
	var unset []string
	total := 0
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		pkg := strings.TrimPrefix(path, "repro/internal/")
		for _, tn := range p.Scope().Names() {
			obj, ok := p.Scope().Lookup(tn).(*types.TypeName)
			if !ok || !strings.HasSuffix(tn, "Config") {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() || v.Embedded() {
					continue
				}
				total++
				name := pkg + "." + tn + "." + v.Name()
				if _, ok := allow[name]; ok {
					allow[name] = !set[v]
				} else if !set[v] {
					unset = append(unset, name)
				}
			}
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is set only in its own file and by tests: make it a constant, or give scripts/knobs.allow the reason it stays", name)
	}
	allowStale(t, "scripts/knobs.allow", allow, "a config field only tests set")
	t.Logf("%d exported *Config fields under internal/, %d allow-list lines, %d set only by tests not on it", total, len(allow), len(unset))
}

// TestHookFieldsHaveSetters keeps every hook attached: an exported
// func-typed field of a struct under internal/ that no file of the
// module load sets (fieldSetters) is called by nothing but tests, and is
// deleted. Test-support packages on scripts/testonly.allow are exempt:
// tests are what set their hooks.
func TestHookFieldsHaveSetters(t *testing.T) {
	s := loadModule(t)
	setters := fieldSetters(s)
	allow := allowList(t, "scripts/testonly.allow")
	var unset []string
	hooks := 0
	for path, p := range s.pkgs {
		pkg := strings.TrimPrefix(path, "repro/internal/")
		if _, ok := allow[pkg]; ok || pkg == path {
			continue
		}
		for _, tn := range p.Scope().Names() {
			obj, ok := p.Scope().Lookup(tn).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if _, fn := v.Type().Underlying().(*types.Signature); !fn || !v.Exported() {
					continue
				}
				hooks++
				if setters[v] == nil {
					unset = append(unset, pkg+"."+tn+"."+v.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is a hook only tests set: delete it", name)
	}
	t.Logf("%d exported func-typed fields under internal/, %d set only by tests", hooks, len(unset))
}

// twoForms names the operations under internal/ that still export a
// second form beside the first, each with the reason it stays.
var twoForms = map[string]string{
	"coherence.Node.ReadAt and ReadAtCB":                 "bench/harness.go calls ReadAtCB, and only a benchmark change may move it to ReadAt",
	"discovery.ControllerClient.Announce and AnnounceCB": "Announce is discovery.Resolver's fire-and-forget method, which every scheme implements; AnnounceCB, the acknowledged announce, has no future form yet",
}

// TestOneFormPerOp keeps one exported form per operation: a type (or
// package) under internal/ that exports M exports neither MCB nor
// MFuture beside it, twoForms aside.
func TestOneFormPerOp(t *testing.T) {
	s := loadModule(t)
	kept := map[string]bool{}
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		pkg := strings.TrimPrefix(path, "repro/internal/")
		exported := map[string]map[string]bool{} // owner → its exported names
		add := func(owner, name string) {
			if exported[owner] == nil {
				exported[owner] = map[string]bool{}
			}
			exported[owner][name] = true
		}
		for _, n := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(n).(type) {
			case *types.Func:
				if obj.Exported() {
					add(pkg, n)
				}
			case *types.TypeName:
				if obj.IsAlias() || !obj.Exported() {
					continue
				}
				ms := types.NewMethodSet(types.NewPointer(obj.Type()))
				for i := 0; i < ms.Len(); i++ {
					if m := ms.At(i).Obj(); m.Exported() {
						add(pkg+"."+n, m.Name())
					}
				}
			}
		}
		for owner, names := range exported {
			for m := range names {
				for _, twin := range []string{m + "CB", m + "Future"} {
					if !names[twin] {
						continue
					}
					pair := owner + "." + m + " and " + twin
					if _, ok := twoForms[pair]; ok {
						kept[pair] = true
					} else {
						t.Errorf("%s are two forms of one op: keep the future, or give twoForms the reason both stay", pair)
					}
				}
			}
		}
	}
	for pair := range twoForms {
		if !kept[pair] {
			t.Errorf("twoForms: %s is not a pair any more; drop the entry", pair)
		}
	}
	t.Logf("%d ops keep two forms", len(kept))
}
