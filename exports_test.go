package qoscluster

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyKeep holds the exported functions and methods that no non-test
// file calls but that stay, each with its reason. TestNoTestOnlyExports
// fails on any other such function, and on an entry here that is gone or
// has gained a non-test caller, so the list cannot rot.
var testOnlyKeep = map[string]string{
	// Ways into production paths that only tests take.
	"repro/experiments.RegisterOverride":  "the trace tests register fast fault campaigns through the campaign Overrides axis, which replay resolves by name",
	"repro/experiments.ReferenceRunTrial": "the per-service probe path, the independent oracle the shard and megasite equivalence tests hold the batched probe engine to",

	// Setters of state the model reads: removing one is a model change.
	"repro/internal/cluster.(*Host).Login":             "logged-in users are state the status agent's profile reports",
	"repro/internal/cluster.(*Host).Logout":            "the inverse of Login",
	"repro/internal/cluster.(*Host).InjectSensorFault": "sensor faults are state the hardware agent reads",
	"repro/internal/svc.(*Service).Degrade":            "a degraded service is state probes and agents read",
	"repro/internal/svc.(*Service).Recover":            "the inverse of Degrade",
	"repro/internal/svc.(*Service).KillComponent":      "a missing component is state probes and agents read",
	"repro/internal/netsim.(*Network).Detach":          "a detached endpoint is state message delivery reads",

	// Accessors that are a test's only view of production state.
	"repro/internal/agent.(*Agent).HasFlag":      "tests read an agent's flag files through it",
	"repro/internal/adminsrv.(*Pair).Profiles":   "tests read the profiles the administration pair holds",
	"repro/internal/cluster.(*Host).NProcs":      "tests read a host's process count",
	"repro/internal/diagnose.(*Baseline).Get":    "tests read a baseline's constraints",
	"repro/internal/lsf.(*Cluster).PendingCount": "tests read LSF's queue depth",
	"repro/internal/lsf.(*Cluster).Jobs":         "the workload tests read the job table from another package",
	"repro/internal/notify.(*Bus).CountByTag":    "tests count notifications by tag",
	"repro/internal/simclock.(*Event).Label":     "kept for per-subsystem event counters (ROADMAP item 6)",
	"repro/internal/simclock.(*CronEntry).Label": "kept for per-subsystem event counters (ROADMAP item 6)",
}

// TestNoTestOnlyExports pins "every exported function has a production
// caller". It type-checks the non-test files of every package in the
// module, examples and scripts included, and of the qosbench harness in
// bench/ (the benchmark calls the simulator's API), and fails on an
// exported function or method of a non-main package outside bench/ that
// no non-test file uses outside its own body. A use through a generic
// instantiation counts for the generic function. A method that satisfies
// an interface method of the same name (String, Error, MarshalJSON, the
// heap and sort methods) is skipped: its callers go through the
// interface, often inside the standard library.
func TestNoTestOnlyExports(t *testing.T) {
	l := loadModule(t)

	// The named interfaces of every loaded package, and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}

	// Every exported function and method of a non-main package outside
	// bench/, with the extent of its declaration.
	type decl struct {
		pos, end token.Pos
		key      string
	}
	decls := map[*types.Func]decl{}
	for _, f := range l.files {
		pkg := l.pkgs[f.path]
		if pkg.Name() == "main" || strings.HasPrefix(f.path, modulePath+"/bench") {
			continue
		}
		for _, d := range f.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			if satisfiesInterface(fn, ifaces) {
				continue
			}
			decls[fn] = decl{fd.Pos(), fd.End(), funcKey(fn)}
		}
	}
	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := decls[fn]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
			used[fn] = true
		}
	}

	declared := map[string]bool{}
	var unused []string
	for fn, d := range decls {
		declared[d.key] = true
		_, keep := testOnlyKeep[d.key]
		switch {
		case !used[fn] && !keep:
			unused = append(unused, l.fset.Position(d.pos).String()+": "+d.key)
		case used[fn] && keep:
			t.Errorf("%s is in testOnlyKeep but has a non-test caller: drop its entry", d.key)
		}
	}
	for key := range testOnlyKeep {
		if !declared[key] {
			t.Errorf("%s is in testOnlyKeep but no longer exists: drop its entry", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("only tests use %s", u)
	}
	if len(unused) > 0 {
		t.Logf("%d exported functions have no non-test caller: delete each, or add it to testOnlyKeep with its reason", len(unused))
	}
}

// testOnlyFieldKeep holds the exported struct fields that no non-test file
// writes but that stay, each with its reason. TestNoTestOnlyFields fails
// on any other such field, and on an entry here that is gone or has gained
// a non-test writer.
var testOnlyFieldKeep = map[string]string{
	"repro/internal/campaign.Matrix.AgentSets": "the full agent set's campaign axis, which ROADMAP item 13 measures before the set is kept or cut",
	"repro/internal/campaign.Matrix.Overrides": "the trace tests' fast fault campaigns ride this axis, and replay resolves them by name",
}

// TestNoTestOnlyFields pins "every exported field has a production
// writer", the struct-field twin of TestNoTestOnlyExports over the same
// type-checked files. An exported field of an exported struct type in a
// non-main package outside bench/ must be written by a non-test file:
// assigned or incremented, addressed (&x.F), or set in a keyed or
// unkeyed composite literal. A field of a generic instantiation counts
// for the generic type's field. The struct types reachable from Topology
// and workload.Spec are exempt: they are file formats, which LoadTopology
// and LoadSpec decode.
func TestNoTestOnlyFields(t *testing.T) {
	l := loadModule(t)
	fields := exportedFields(l)

	written := map[*types.Var]bool{}
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	for _, f := range l.files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.CompositeLit:
				// An element literal of a []*T or map[K]*T elides &T.
				typ := l.info.Types[n].Type
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						written[l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
					} else {
						written[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}

	declared := map[string]bool{}
	var unwritten []string
	for v, f := range fields {
		key := f.key
		declared[key] = true
		_, keep := testOnlyFieldKeep[key]
		switch {
		case !written[v] && !keep:
			unwritten = append(unwritten, l.fset.Position(v.Pos()).String()+": "+key)
		case written[v] && keep:
			t.Errorf("%s is in testOnlyFieldKeep but has a non-test writer: drop its entry", key)
		}
	}
	for key := range testOnlyFieldKeep {
		if !declared[key] {
			t.Errorf("%s is in testOnlyFieldKeep but no longer exists: drop its entry", key)
		}
	}
	sort.Strings(unwritten)
	for _, u := range unwritten {
		t.Errorf("only tests write %s", u)
	}
	if len(unwritten) > 0 {
		t.Logf("%d exported fields have no non-test writer: delete each, or add it to testOnlyFieldKeep with its reason", len(unwritten))
	}
}

// exportedField names an exported struct field "pkg.Type.Field", and
// records whether it carries a json tag.
type exportedField struct {
	key  string
	json bool
}

// exportedFields lists every exported field of an exported struct type of
// a non-main package outside bench/. The struct types reachable from
// Topology and workload.Spec are left out: they are file formats, which
// LoadTopology and LoadSpec decode.
func exportedFields(l *exportLoader) map[*types.Var]exportedField {
	exempt := map[*types.TypeName]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Named:
			if !exempt[typ.Obj()] {
				exempt[typ.Obj()] = true
				reach(typ.Underlying())
			}
		case *types.Pointer:
			reach(typ.Elem())
		case *types.Slice:
			reach(typ.Elem())
		case *types.Array:
			reach(typ.Elem())
		case *types.Map:
			reach(typ.Key())
			reach(typ.Elem())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				reach(typ.Field(i).Type())
			}
		}
	}
	for _, format := range []struct{ pkg, name string }{
		{modulePath, "Topology"}, {modulePath + "/internal/workload", "Spec"},
	} {
		reach(l.pkgs[format.pkg].Scope().Lookup(format.name).Type())
	}

	fields := map[*types.Var]exportedField{}
	for _, f := range l.files {
		pkg := l.pkgs[f.path]
		if pkg.Name() == "main" || strings.HasPrefix(f.path, modulePath+"/bench") {
			continue
		}
		for _, d := range f.file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				tn := l.info.Defs[spec.(*ast.TypeSpec).Name].(*types.TypeName)
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok || !tn.Exported() || exempt[tn] {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if v := st.Field(i); v.Exported() {
						tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
						fields[v] = exportedField{pkg.Path() + "." + tn.Name() + "." + v.Name(), ok && tag != "-"}
					}
				}
			}
		}
	}
	return fields
}

// writeOnlyFieldKeep holds the exported struct fields that no non-test
// file reads but that stay, each with its reason. TestNoWriteOnlyFields
// fails on any other such field, and on an entry here that is gone or has
// gained a non-test reader.
var writeOnlyFieldKeep = map[string]string{}

// TestNoWriteOnlyFields pins "every exported field has a production
// reader", the reader twin of TestNoTestOnlyFields over the same fields.
// A reader is a selection of the field in a non-test file that is not
// the left side of an assignment (=, := or op=) and not the operand of
// an inc/dec; x.F.G = v reads F. Reaching a field or method through an
// embedded field reads the embedded field. A field of a generic
// instantiation counts for the generic type's field. JSON-tagged fields
// are exempt: encoding/json reads them.
func TestNoWriteOnlyFields(t *testing.T) {
	l := loadModule(t)
	fields := exportedFields(l)

	writes := map[*ast.SelectorExpr]bool{}
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel] = true
		}
	}
	for _, f := range l.files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			}
			return true
		})
	}
	read := map[*types.Var]bool{}
	for sel, s := range l.info.Selections {
		if s.Kind() == types.MethodExpr {
			continue
		}
		// The embedded fields the selection passes through.
		typ, path := s.Recv(), s.Index()
		for _, i := range path[:len(path)-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			v := typ.Underlying().(*types.Struct).Field(i)
			read[v.Origin()] = true
			typ = v.Type()
		}
		if s.Kind() == types.FieldVal && !writes[sel] {
			read[s.Obj().(*types.Var).Origin()] = true
		}
	}

	declared := map[string]bool{}
	var unread []string
	for v, f := range fields {
		if f.json {
			continue
		}
		declared[f.key] = true
		_, keep := writeOnlyFieldKeep[f.key]
		switch {
		case !read[v] && !keep:
			unread = append(unread, l.fset.Position(v.Pos()).String()+": "+f.key)
		case read[v] && keep:
			t.Errorf("%s is in writeOnlyFieldKeep but has a non-test reader: drop its entry", f.key)
		}
	}
	for key := range writeOnlyFieldKeep {
		if !declared[key] {
			t.Errorf("%s is in writeOnlyFieldKeep but no longer exists: drop its entry", key)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("only tests read %s", u)
	}
	if len(unread) > 0 {
		t.Logf("%d exported fields have no non-test reader: delete each, or add it to writeOnlyFieldKeep with its reason", len(unread))
	}
}

const modulePath = "repro"

var (
	moduleOnce sync.Once
	module     *exportLoader
	moduleErr  error
)

// loadModule type-checks the non-test files of every package in the
// module, examples and scripts included, and of the qosbench harness in
// bench/, skipping testdata and dot directories. The three gates share
// one load: the source type-check is almost all of their run time.
func loadModule(t *testing.T) *exportLoader {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

func typeCheckModule() (*exportLoader, error) {
	l := &exportLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if files, err := goFiles(path); err != nil || len(files) == 0 {
			return err
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join(modulePath, path)))
		return err
	})
	return l, err
}

// exportLoader type-checks the module's packages from source, non-test
// files only, into one shared types.Info, and imports everything else
// (the standard library) through the source importer.
type exportLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	files []loadedFile
	info  *types.Info
}

type loadedFile struct {
	path string // import path of the file's package
	file *ast.File
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *exportLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		pkg, err := l.std.ImportFrom(path, dir, mode)
		l.pkgs[path] = pkg
		return pkg, err
	}
	dir = filepath.FromSlash("." + strings.TrimPrefix(path, modulePath))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		l.files = append(l.files, loadedFile{path, f})
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	l.pkgs[path] = pkg
	return pkg, err
}

// goFiles lists the non-test Go files of dir that the default build
// context compiles.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// satisfiesInterface reports whether fn is a method through which its
// receiver implements one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := recv.Type()
	if p, ok := named.(*types.Pointer); ok {
		named = p.Elem()
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// funcKey names fn as a runtime stack frame does: "repro/internal/x.F",
// "repro/internal/x.T.M" or "repro/internal/x.(*T).M".
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		switch t := recv.Type().(type) {
		case *types.Pointer:
			name = "(*" + t.Elem().(*types.Named).Obj().Name() + ")." + name
		case *types.Named:
			name = t.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Path() + "." + name
}
