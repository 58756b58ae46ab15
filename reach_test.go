package repro

// Tier-1 reachability check: every exported name in internal/, and every
// unexported package-level name, has a caller in code a program runs.
// Go's internal/ rule means an exported identifier there serves this
// module alone, so one that only tests call is code no program runs, and
// so is one that only such code calls: the check follows references from
// the programs' code to a fixpoint. A grep cannot tell two methods of one
// name apart, so the check type-checks the module (and bench/, a separate
// module that calls it) with go/types and reads what each identifier
// resolves to. The settings check on the same loader holds options to the
// same rule: a field of an options struct, or a With* option, that only
// tests set is a constant.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreachedExported pins the exported names in internal/ that no program
// reaches, each under the reason it is kept. The list may only shrink: a
// new entry fails the test, and so does an entry that has since found a
// caller or left the tree.
var unreachedExported = []string{
	// Kept: test seams.
	"internal/faultinject.FakeClock",
	"internal/faultinject.FakeClock.Advance",
	"internal/faultinject.FakeClock.BlockUntil",
	"internal/faultinject.FakeClock.Waiters",
	"internal/faultinject.FaultyFS.BytesWritten",
	"internal/faultinject.FaultyFS.Clear",
	"internal/faultinject.FaultyFS.DiskFullAfter",
	"internal/faultinject.FaultyFS.FailSyncs",
	"internal/faultinject.FaultyFS.FailWrites",
	"internal/faultinject.FaultyFS.Injected",
	"internal/faultinject.Injector.Injected",
	"internal/faultinject.NewFakeClock",
	"internal/faultinject.NewFaultyFS",
	"internal/faultinject.Transport",
	"internal/faultinject.Transport.Clear",
	"internal/faultinject.Transport.SetRules",
	"internal/race.Enabled",
	// Kept: the Lemma 1 tools of ROADMAP item 15 (Gap's report and the
	// principal angles SinThetaDist is built on), and the fuzz entry.
	"internal/perturb.Gap",
	"internal/perturb.GapReport",
	"internal/perturb.GapReport.RelGap",
	"internal/perturb.GapReport.SigmaK",
	"internal/perturb.GapReport.SigmaK1",
	"internal/perturb.PrincipalAngles",
	"internal/perturb.SinThetaDist",
	"internal/ir.Tokenize",
	// Kept: oracles a test compares another routine against (SymEigen,
	// ApplySparse, Welford, the int8 assembly kernels).
	"internal/svd.SymJacobi",
	"internal/randproj.Projection.ApplyDense",
	"internal/stats.MeanSlice",
	"internal/mat.DotInt8",
	// Kept: helpers the paper-result tests call (Lemma 2, ε-separability,
	// Section 6's graph from the document Gram matrix).
	"internal/randproj.JLDim",
	"internal/corpus.Topic.MassOn",
	"internal/corpus.Topic.MaxProb",
	"internal/corpus.Topic.Prob",
	"internal/graphmodel.FromSimilarity",
	// Kept: shared test utilities, which the tests of at least two other
	// packages call (Go cannot share a _test.go helper across packages).
	"internal/blob.NewMappedReader",
	"internal/corpus.Query.Vector",
	"internal/mat.Dense.IsOrthonormalCols",
	"internal/mat.Dense.MaxAbs",
	"internal/mat.EqualApprox",
	"internal/mat.FromRows",
	"internal/sparse.CSR.At",
}

func TestInternalNamesAreReached(t *testing.T) {
	got := findUnreached(t, []module{{dir: ".", path: "repro"}, {dir: "bench", path: "repro/bench"}}, "repro/bench")
	for _, u := range got.unexported {
		t.Errorf("%s: unexported %s is reached from no program; delete it", got.pos[u], u)
	}
	for _, u := range got.exported {
		if !slices.Contains(unreachedExported, u) {
			t.Errorf("%s: exported %s is reached from no program; delete it (and the tests that only it needs)", got.pos[u], u)
		}
	}
	for _, u := range unreachedExported {
		if !slices.Contains(got.exported, u) {
			t.Errorf("%s is reached now or gone; take it off unreachedExported", u)
		}
	}
}

// TestReachabilityCheckerFixture runs the checker on testdata/reach.txtar,
// a module built to hold one case of each rule.
func TestReachabilityCheckerFixture(t *testing.T) {
	got := findUnreached(t, []module{{dir: unpackFixture(t), path: "fixture"}}, "")
	wantExported := []string{"internal/a.CalledByTests", "internal/a.OnlyFromUnused", "internal/a.Twin.Label", "internal/a.Unused"}
	if !slices.Equal(got.exported, wantExported) {
		t.Errorf("exported = %q, want %q", got.exported, wantExported)
	}
	if want := []string{"internal/a.helper"}; !slices.Equal(got.unexported, want) {
		t.Errorf("unexported = %q, want %q", got.unexported, want)
	}
}

// TestSettingsCheckerFixture runs the settings check on the same module.
func TestSettingsCheckerFixture(t *testing.T) {
	got := findUnset(t, []module{{dir: unpackFixture(t), path: "fixture"}}, "", "fixture/retrieval")
	want := []string{"internal/a.Config.Deep", "retrieval.Options.Defaulted", "retrieval.Options.TestOnly", "retrieval.WithInside", "retrieval.WithTestOnly"}
	if !slices.Equal(got.names, want) {
		t.Errorf("unset = %q, want %q", got.names, want)
	}
}

// unpackFixture writes the files of testdata/reach.txtar (each
// "-- name --" line starts one) into a fresh directory and returns it.
func unpackFixture(t *testing.T) string {
	t.Helper()
	archive, err := os.ReadFile(filepath.Join("testdata", "reach.txtar"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var file *os.File
	for _, line := range strings.SplitAfter(string(archive), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "-- "); ok && strings.HasSuffix(name, " --") {
			path := filepath.Join(dir, strings.TrimSuffix(name, " --"))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if file, err = os.Create(path); err != nil {
				t.Fatal(err)
			}
			defer file.Close()
		} else if file != nil {
			if _, err := file.WriteString(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// unsetSettings pins the settings no program sets: the fields of the
// module's exported *Options and *Config structs, and retrieval's With*
// options, that only tests (or code no program reaches) set. A value
// only tests set is a constant that costs a configuration to cover. The
// list may only shrink: a new entry fails the test, and so does an entry
// that has since found a setter or left the tree.
var unsetSettings = []string{
	// Kept: test seams, which the chaos and replica tests replace with a
	// FakeClock and a fault-injecting transport.
	"retrieval/cluster.ReplicaOptions.Client",
	"retrieval/cluster.ReplicaOptions.Clock",
	"retrieval/cluster.RouterOptions.Client",
	"retrieval/cluster.RouterOptions.Clock",
	// Kept: the retry budget. The chaos suite's failover scenarios need a
	// zero budget; at the default one a transport failure waits for its
	// backoff on a FakeClock nothing advances.
	"retrieval/cluster.RouterOptions.RetryBudgetBurst",
	"retrieval/cluster.RouterOptions.RetryBudgetRatio",
	// Kept: the IVF training budget. BenchmarkSearchRoutes (internal/segment)
	// trains its 51,200-document segment with 2 Lloyd passes, not the
	// default 10, and the bench gate compares that benchmark across trees.
	"internal/ivf.TrainOptions.Iters",
	// Kept: the tier floor. The shard tier tests need other values than
	// the default 256: annConfig and quantConfig set 1 so that 8-document
	// segments carry sidecars, and TestANNMinDocsGate and
	// TestQuantMinDocsGate set 1000 to check the gate.
	"retrieval/shard.Config.TierMinDocs",
}

func TestSettingsAreSet(t *testing.T) {
	got := findUnset(t, []module{{dir: ".", path: "repro"}, {dir: "bench", path: "repro/bench"}}, "repro/bench", "repro/retrieval")
	for _, u := range got.names {
		if !slices.Contains(unsetSettings, u) {
			t.Errorf("%s: setting %s is set by no program; make it a constant", got.pos[u], u)
		}
	}
	for _, u := range unsetSettings {
		if !slices.Contains(got.names, u) {
			t.Errorf("%s is set now or gone; take it off unsetSettings", u)
		}
	}
}

// module is one Go module to type-check: its directory and module path.
type module struct{ dir, path string }

// unreached is findUnreached's answer: sorted names relative to their
// module ("internal/ir.F1", "internal/lsi.Index.Append") and where each
// is declared.
type unreached struct {
	exported, unexported []string
	pos                  map[string]token.Position
}

// findUnreached type-checks the non-test packages of mods and returns:
//   - the exported package-level names, methods and struct fields of
//     every package under an internal/ directory that the program does
//     not reach;
//   - the unexported package-level names it does not reach, in every
//     package outside the module path skipUnexported.
//
// What the program reaches is reach's fixpoint.
func findUnreached(t *testing.T, mods []module, skipUnexported string) unreached {
	t.Helper()
	l, paths := load(t, mods)
	r := reach(t, l, paths)
	out := unreached{pos: map[string]token.Position{}}
	add := func(list *[]string, p string, obj types.Object, name string) {
		if r.used[obj] {
			return
		}
		key := l.dirs[p].name + "." + name
		*list = append(*list, key)
		out.pos[key] = l.fset.Position(obj.Pos())
	}
	for _, p := range paths {
		scope := l.pkgs[p].Scope()
		internal := isInternal(p)
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch {
			case obj.Exported() && internal:
				add(&out.exported, p, obj, name)
			case !obj.Exported() && p != skipUnexported && name != "main" && name != "init" && name != "_":
				add(&out.unexported, p, obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !internal || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(&out.exported, p, m, name+"."+m.Name())
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						add(&out.exported, p, f, name+"."+f.Name())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						add(&out.exported, p, m, name+"."+m.Name())
					}
				}
			}
		}
	}
	slices.Sort(out.exported)
	slices.Sort(out.unexported)
	return out
}

// isInternal reports whether the package with import path p sits under
// an internal/ directory.
func isInternal(p string) bool { return slices.Contains(strings.Split(p, "/"), "internal") }

// reach returns what the program of the loaded packages reaches, as a
// fixpoint over their top-level declarations. Every declaration outside
// internal/ is a root, and so are init, main and the blank declarations
// anywhere. A declaration in internal/ counts its references once one of
// the names it declares is reached. A use inside a declaration's own
// names (recursion, a method's receiver) does not count. A method is
// reached when its type (or a pointer to it) satisfies an interface that
// declares it; an embedded field when a selection or such a method runs
// through it.
func reach(t *testing.T, l *loader, paths []string) *refs {
	t.Helper()
	r := &refs{info: l.info, used: map[types.Object]bool{}, live: map[ast.Node]bool{}, decls: map[types.Object]*decl{}}
	root := func(o types.Object) bool {
		return o == nil || o.Name() == "init" || o.Name() == "main" || o.Name() == "_"
	}
	for _, p := range paths {
		for _, f := range l.files[p] {
			for _, d := range declsOf(l.info, f) {
				if !isInternal(p) || slices.ContainsFunc(d.names, root) {
					r.enqueue(d)
				}
				for _, o := range d.names {
					r.decls[o] = d
				}
			}
		}
	}
	conv, err := parser.ParseFile(l.fset, "conventions.go", errorsConventions, 0)
	if err != nil {
		t.Fatal(err)
	}
	convPkg, err := new(types.Config).Check("conventions", l.fset, []*ast.File{conv}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var checked []*types.Package
	for _, p := range paths {
		checked = append(checked, l.pkgs[p])
	}
	r.interfaces(checked, convPkg)
	for len(r.queue) > 0 {
		d := r.queue[0]
		r.queue = r.queue[1:]
		r.node(d.node, append([]types.Object{d.recv}, d.names...))
	}
	return r
}

// load type-checks the non-test packages of mods and returns them with
// their import paths, sorted.
func load(t *testing.T, mods []module) (*loader, []string) {
	t.Helper()
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  map[string]pkgDir{},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	for _, m := range mods {
		if err := l.scan(m); err != nil {
			t.Fatal(err)
		}
	}
	var paths []string
	for p := range l.dirs {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	return l, paths
}

// unset is findUnset's answer: the sorted settings no program sets, by
// their names relative to the module ("retrieval/httpapi.Options.Timeout",
// "retrieval.WithShards"), and where each is declared.
type unset struct {
	names []string
	pos   map[string]token.Position
}

// findUnset type-checks the non-test packages of mods and returns the
// settings that no reached declaration (see reach) sets:
//   - the fields of every exported struct type named *Options or *Config
//     in a package outside the module path skip. A literal sets a field
//     by its key, or all fields when it is unkeyed; an assignment, an
//     increment or taking the address (a flag binding) sets one when it
//     is not in a method of the field's own type, such as the
//     withDefaults that fills in a zero value;
//   - the With* functions of the package optPkg that no code outside
//     that package references.
func findUnset(t *testing.T, mods []module, skip, optPkg string) unset {
	t.Helper()
	l, paths := load(t, mods)
	names := map[types.Object]string{}
	owner := map[types.Object]types.Object{} // a field's struct type
	for _, p := range paths {
		if p == skip || strings.HasPrefix(p, skip+"/") {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					names[st.Field(i)] = l.dirs[p].name + "." + name + "." + st.Field(i).Name()
					owner[st.Field(i)] = tn
				}
			}
		}
	}
	scope := l.pkgs[optPkg].Scope()
	for _, name := range scope.Names() {
		if fn, ok := scope.Lookup(name).(*types.Func); ok && strings.HasPrefix(name, "With") && fn.Exported() {
			names[fn] = l.dirs[optPkg].name + "." + name
		}
	}

	live := reach(t, l, paths).live
	set := map[types.Object]bool{}
	for _, p := range paths {
		for _, f := range l.files[p] {
			for _, d := range declsOf(l.info, f) {
				if !live[d.node] {
					continue
				}
				target := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if obj := l.info.Uses[sel.Sel]; owner[obj] != nil && owner[obj] != d.recv {
							set[obj] = true
						}
					}
				}
				ast.Inspect(d.node, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							target(lhs)
						}
					case *ast.IncDecStmt:
						target(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							target(x.X)
						}
					case *ast.CompositeLit:
						st, ok := l.info.Types[x].Type.Underlying().(*types.Struct)
						if !ok || len(x.Elts) == 0 {
							break
						}
						if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := 0; i < st.NumFields(); i++ {
								set[st.Field(i)] = true
							}
						}
					case *ast.KeyValueExpr:
						if key, ok := x.Key.(*ast.Ident); ok && owner[l.info.Uses[key]] != nil {
							set[l.info.Uses[key]] = true
						}
					case *ast.Ident:
						if obj, ok := l.info.Uses[x].(*types.Func); ok && p != optPkg && names[obj] != "" {
							set[obj] = true
						}
					}
					return true
				})
			}
		}
	}
	out := unset{pos: map[string]token.Position{}}
	for obj, name := range names {
		if !set[obj] {
			out.names = append(out.names, name)
			out.pos[name] = l.fset.Position(obj.Pos())
		}
	}
	slices.Sort(out.names)
	return out
}

// errorsConventions declares the interfaces package errors asserts inside
// its function bodies, which export data does not show: an error type's
// Unwrap, Is and As methods are reached through them.
const errorsConventions = `package conventions

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// loader parses and type-checks the packages of the scanned modules on
// demand, in import order, and hands the standard library to the gc
// importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]pkgDir // by import path
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

// pkgDir is where a scanned package lives, and the name findUnreached
// reports it by: its path inside the module, or the module path for the
// module's root package.
type pkgDir struct{ dir, name string }

// scan records every package directory of m, leaving out testdata,
// directories named with a leading dot or underscore, and nested modules.
func (l *loader) scan(m module) error {
	return filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != m.dir {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := build.Default.ImportDir(dir, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			l.dirs[m.path] = pkgDir{dir, m.path}
		} else {
			l.dirs[m.path+"/"+filepath.ToSlash(rel)] = pkgDir{dir, filepath.ToSlash(rel)}
		}
		return nil
	})
}

// Import type-checks a scanned package, after the packages it imports,
// and passes every other path to the standard library's importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pd, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.Default.ImportDir(pd.dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(pd.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// refs collects which objects and declarations the program reaches.
type refs struct {
	info  *types.Info
	used  map[types.Object]bool
	live  map[ast.Node]bool      // the reached declarations
	decls map[types.Object]*decl // the declaration of each name
	queue []*decl                // reached, their references not yet marked
}

// decl is one top-level declaration: a function or method, or one spec
// of a var, const or type declaration.
type decl struct {
	node  ast.Node
	names []types.Object // the names it declares
	recv  types.Object   // a method's receiver type
}

// declsOf lists the top-level declarations of f.
func declsOf(info *types.Info, f *ast.File) []*decl {
	var out []*decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fd := &decl{node: d, names: []types.Object{info.Defs[d.Name]}}
			if d.Recv != nil {
				fd.recv = recvType(info, d.Recv.List[0].Type)
			}
			out = append(out, fd)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				sd := &decl{node: spec}
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						sd.names = append(sd.names, info.Defs[n])
					}
				case *ast.TypeSpec:
					sd.names = append(sd.names, info.Defs[s.Name])
				}
				out = append(out, sd)
			}
		}
	}
	return out
}

// mark records obj as reached, as its generic origin when it is an
// instance's member, and queues the declaration that declares it.
func (r *refs) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if r.used[obj] {
		return
	}
	r.used[obj] = true
	if d := r.decls[obj]; d != nil {
		r.enqueue(d)
	}
}

// enqueue records d as reached and queues its references.
func (r *refs) enqueue(d *decl) {
	if !r.live[d.node] {
		r.live[d.node] = true
		r.queue = append(r.queue, d)
	}
}

// recvType is the type name of a method receiver expression such as
// *T or T[P].
func recvType(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// node marks the objects n uses, except those in own; the struct fields
// an unkeyed composite literal fills; and the embedded fields a
// selection passes through.
func (r *refs) node(n ast.Node, own []types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := r.info.Uses[x]; obj != nil && !slices.Contains(own, obj) {
				r.mark(obj)
			}
		case *ast.SelectorExpr:
			if sel, ok := r.info.Selections[x]; ok {
				r.path(sel.Recv(), sel.Index())
			}
		case *ast.CompositeLit:
			st, ok := r.info.Types[x].Type.Underlying().(*types.Struct)
			if ok && len(x.Elts) > 0 {
				if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						r.mark(st.Field(i))
					}
				}
			}
		}
		return true
	})
}

// path marks the embedded fields a selection with this index path walks
// through from a value of type t.
func (r *refs) path(t types.Type, index []int) {
	for _, i := range index[:len(index)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		r.mark(f)
		t = f.Type()
	}
}

// interfaces marks every method through which a named type of the
// checked packages (or an instance of one) satisfies an interface: one
// declared at package level in any package the program loads or in
// conventions, or one written as a literal in the checked code.
func (r *refs) interfaces(checked []*types.Package, conventions *types.Package) {
	byMethod := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || it.NumMethods() == 0 {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			if !slices.Contains(byMethod[name], it) {
				byMethod[name] = append(byMethod[name], it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	walk(conventions)
	var named []types.Type
	for _, p := range checked {
		walk(p)
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for _, tv := range r.info.Types {
		addIface(tv.Type)
		if n, ok := tv.Type.(*types.Named); ok && n.Origin() != n {
			named = append(named, n)
		}
	}
	done := map[types.Type]bool{}
	for _, t := range named {
		if done[t] || types.IsInterface(t) {
			continue
		}
		done[t] = true
		ptr := types.NewPointer(t)
		ms := types.NewMethodSet(ptr)
		var cands []*types.Interface
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byMethod[ms.At(i).Obj().Name()] {
				if !slices.Contains(cands, it) {
					cands = append(cands, it)
				}
			}
		}
		for _, it := range cands {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, index, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if obj != nil {
					r.mark(obj)
					r.path(ptr, index)
				}
			}
		}
	}
}
