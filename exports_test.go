package insitu

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
	"testing"
)

// testOnlyAllowed names the top-level declarations under internal/ that may
// stay although no program reaches them, and the struct fields that may stay
// although no program sets or reads them, each with the reason it stays. A
// key is "dir.Name", "dir.Type.Method" or "dir.Type.Field", with dir relative
// to the module root; a key ending in ".*" covers a whole package.
var testOnlyAllowed = map[string]string{
	"internal/solvercheck.*":  "differential oracles and fuzz harness for lp, milp and core",
	"internal/obs/jsontest.*": "encoder-equivalence harness for the hand-written JSON encoders",

	"internal/core.GreedySolve":                      "the paper's greedy baseline",
	"internal/core.FixedFrequency":                   "the paper's fixed-frequency baseline",
	"internal/core.Explanation.Attribution":          "lookup the explain tests read",
	"internal/core.PlacementRecommendation.Schedule": "lookup the placement tests read",

	"internal/obs.CanonicalBytes":         "determinism corpus comparison form",
	"internal/obs.DeterministicBytes":     "determinism corpus comparison form",
	"internal/obs.EventLog.SetClock":      "fake-clock seam for byte-exact tests",
	"internal/milp.Options.Now":           "fake-clock seam for byte-exact tests",
	"internal/schedd.Config.Now":          "fake-clock seam for byte-exact tests",
	"internal/obs.Tracer.SetClock":        "fake-clock seam for byte-exact tests",
	"internal/obs.Tracer.BeginOn":         "second-track span the timeline golden records",
	"internal/obs.FlightRecorder.Dropped": "ring accessor the retention tests read",
	"internal/obs.Tracer.Events":          "the reader of the timeline golden and the span tests",
	"internal/obs.EventLog.Err":           "sticky-error accessor the sink-failure tests read",
	"internal/obs.Histogram.Count":        "accessor the metrics tests read",
	"internal/milp.TreeRecorder.Nodes":    "accessor the tree tests read",
	"internal/replan.Replanner.Incumbent": "accessor the hysteresis tests read",
	"internal/runmon.EWMA.N":              "accessor the detector tests read",
	"internal/milp.ReadTree":              "decoder the tree round-trip tests read",
	"internal/perfbench.Workloads":        "the counter corpus TestCountersBaseline walks",
	"internal/iosim.BurstBuffer.Backlog":  "accessor the drain tests read",

	"internal/perfmodel.NewInterp1D": "1-D predictor its example and tests exercise",

	"internal/lp.revised.noCrash":           "test seam: the crash-versus-slack-basis tests clear the crash",
	"internal/lp.revised.onPivot":           "test seam: the movable-set checks run after every pivot",
	"internal/replan.Scenario.ThresholdSec": "zero-valued key the replan_runs golden pins; goes at the next golden regeneration",
	"internal/replan.Scenario.MinImprove":   "zero-valued key the replan_runs golden pins; goes at the next golden regeneration",

	"internal/sim/amr.Grid.Run":                         "stepping loop the hydro tests drive",
	"internal/sim/amr.Grid.MemoryBytes":                 "grid memory estimate the AMR and campaign tests read",
	"internal/sim/amr.Grid.TotalMass":                   "conservation check the hydro tests read",
	"internal/sim/amr.Grid.TotalEnergy":                 "conservation check the hydro tests read",
	"internal/sim/amr.SedovReference.PostShockDensity":  "Sedov reference check the hydro tests read",
	"internal/sim/amr.SedovReference.PostShockPressure": "Sedov reference check the hydro tests read",
	"internal/sim/md.System.Run":                        "stepping loop the MD tests drive",
	"internal/sim/md.System.TotalEnergy":                "conservation check the MD tests read",
	"internal/sim/md.System.Momentum":                   "conservation check the MD tests read",
	"internal/sim/md.System.Rescale":                    "thermostat step the MD tests drive",
	"internal/sim/md.System.CountType":                  "composition check the MD tests read",

	"internal/trajectory.Reader.NumAtoms":      "header accessor the reader tests read",
	"internal/trajectory.Reader.Fields":        "header accessor the reader tests read",
	"internal/trajectory.Writer.Frames":        "accessor the writer tests read",
	"internal/trajectory.Writer.BytesPerFrame": "size model the on-disk test checks",

	"internal/analysis/amrkernels.L1Norm.Series":              "kernel result accessor its tests read",
	"internal/analysis/amrkernels.L2Norm.Series":              "kernel result accessor its tests read",
	"internal/analysis/amrkernels.RadialProfile.MeanDensity":  "kernel result accessor its tests read",
	"internal/analysis/amrkernels.ShockTracker.Radii":         "kernel result accessor its tests read",
	"internal/analysis/amrkernels.Vorticity.MaxSeries":        "kernel result accessor its tests read",
	"internal/analysis/mdkernels.DensityHist.Samples":         "kernel result accessor its tests read",
	"internal/analysis/mdkernels.DensityHist.Total":           "kernel result accessor its tests read",
	"internal/analysis/mdkernels.Gyration.Series":             "kernel result accessor its tests read",
	"internal/analysis/mdkernels.MSD.Series":                  "kernel result accessor its tests read",
	"internal/analysis/mdkernels.MSD.WindowLen":               "kernel result accessor its tests read",
	"internal/analysis/mdkernels.RDF.Samples":                 "kernel result accessor its tests read",
	"internal/analysis/mdkernels.SpeedHistogram.BinCenters":   "kernel result accessor its tests read",
	"internal/analysis/mdkernels.SpeedHistogram.Distribution": "kernel result accessor its tests read",
	"internal/analysis/mdkernels.Stats.Series":                "kernel result accessor its tests read",
	"internal/analysis/mdkernels.VACF.Series":                 "kernel result accessor its tests read",
}

// implicitMethods are method names the standard library calls through an
// interface it checks for at run time (fmt.Stringer, error, json.Marshaler,
// http.Handler, sort and heap interfaces), so a value's type is all the
// module shows of the call.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyExports fails when a top-level declaration under internal/ —
// function, method, type, var or const, exported or not — is reached by no
// program and is not in testOnlyAllowed. Code that only its own tests reach
// is code to delete, not to keep. See unreachable for what "reached" means.
func TestNoTestOnlyExports(t *testing.T) {
	problems, err := unreachable(".", testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestReachabilityFixture runs the same walk over testdata/deadcode, a small
// module whose one dead method shares its name with a live one, and whose
// other declarations are reached only through an interface, a generic
// instance or an allowlisted root. Of its fields, one is never set, one is
// never set although its pointer methods are called, one is set only by its
// type's withDefaults, one is only written and one is only added to; the
// others are set by a program as well as by withDefaults, set only by
// another type's withDefaults, set only through nested index expressions, a
// zero-value mutex's Lock, elided composite literals or a range, or read
// only by reflection through an interface. Only the dead method and the five
// dead fields may be reported.
func TestReachabilityFixture(t *testing.T) {
	problems, err := unreachable("testdata/deadcode", map[string]string{
		"internal/lib.Spare": "kept to show an allowlisted root reaches its callees",
	})
	if err != nil {
		t.Fatal(err)
	}
	const fix = "; delete it with what it guards, or allow it in testOnlyAllowed with a reason"
	want := []string{
		"internal/lib.Config.Log: no program sets it" + fix,
		"internal/lib.Config.Note: no program reads it" + fix,
		"internal/lib.Config.Retries: no program sets it" + fix,
		"internal/lib.Config.Unset: no program sets it" + fix,
		"internal/lib.Counter.total: no program reads it" + fix,
		"internal/lib.Sim.Run: no program reaches it; delete it with its tests, or allow it in testOnlyAllowed with a reason",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Errorf("problems = %q, want %q", problems, want)
	}
}

// unreachable type-checks every non-test package of the module rooted at root
// (directories named testdata or starting with "." are skipped) and walks
// from the roots — every declaration of a package main, every init function,
// every package-level var with an initializer — along the objects each
// reached declaration uses. A method of a reached type is reached too when a
// reached interface that the type implements declares it, or when its name
// is in implicitMethods. It returns, sorted, one line per declaration under
// internal/ left unreached once the allowed keys have been walked as further
// roots, and one per allowed key that matches no declaration the programs
// leave unreached.
func unreachable(root string, allowed map[string]string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	w := &walker{
		module: m, reached: map[types.Object]bool{}, ifaces: map[*types.Interface]bool{},
		set: map[*types.Var]bool{}, read: map[*types.Var]bool{}, target: map[*ast.SelectorExpr]bool{},
	}
	for _, n := range m.roots {
		w.visit(n)
	}
	for _, obj := range m.rootObjs {
		w.mark(obj)
	}
	w.run()
	byPrograms := make(map[types.Object]bool, len(w.reached))
	for obj := range w.reached {
		byPrograms[obj] = true
	}
	stale := map[string]bool{}
	for k := range allowed {
		stale[k] = true
	}
	for obj, d := range m.decls {
		for _, k := range []string{d.key, d.dir + ".*"} {
			if allowed[k] != "" {
				w.mark(obj)
				if !byPrograms[obj] {
					stale[k] = false
				}
			}
		}
	}
	w.run()
	var problems []string
	for obj, d := range m.decls {
		if !w.reached[obj] && strings.HasPrefix(d.dir, "internal/") {
			problems = append(problems, d.key+": no program reaches it; delete it with its tests, or allow it in testOnlyAllowed with a reason")
		}
	}
	for f, d := range m.fields {
		if !byPrograms[d.owner] || !strings.HasPrefix(d.dir, "internal/") {
			continue
		}
		why := "no program sets it"
		if w.set[f] {
			if w.read[f] {
				continue
			}
			why = "no program reads it"
		}
		allow := false
		for _, k := range []string{d.key, d.dir + ".*"} {
			if allowed[k] != "" {
				allow, stale[k] = true, false
			}
		}
		if !allow {
			problems = append(problems, d.key+": "+why+"; delete it with what it guards, or allow it in testOnlyAllowed with a reason")
		}
	}
	for k, s := range stale {
		if s {
			problems = append(problems, k+": allowed in testOnlyAllowed but a program reaches it (a field: sets and reads it), or nothing declares it; drop the entry")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// module is a type-checked Go module: its declarations by object, and the
// syntax its roots start from.
type module struct {
	fset     *token.FileSet
	info     *types.Info
	std      types.Importer
	pkgs     map[string]*modPkg // by import path
	decls    map[types.Object]*decl
	fields   map[*types.Var]*field
	roots    []ast.Node     // root syntax that declares no object: init, blank vars
	rootObjs []types.Object // root declarations
}

type modPkg struct {
	dir   string // relative to the module root, slash-separated
	files []*ast.File
	pkg   *types.Package
}

// decl is one top-level declaration: its key in testOnlyAllowed's form and
// the syntax to walk once it is reached.
type decl struct {
	dir, key string
	nodes    []ast.Node
	group    []types.Object // an enumeration's members, reached together
}

// field is one field of a top-level struct type, keyed "dir.Type.Field".
type field struct {
	dir, key string
	owner    types.Object // the struct type
}

// loadModule parses and type-checks the module rooted at root, and indexes
// its declarations.
func loadModule(root string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	m := &module{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:   map[string]*modPkg{},
		decls:  map[types.Object]*decl{},
		fields: map[*types.Var]*field{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		ipath := modPath
		if dir != "." {
			ipath += "/" + dir
		}
		p := m.pkgs[ipath]
		if p == nil {
			p = &modPkg{dir: dir}
			m.pkgs[ipath] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ipath, p := range m.pkgs {
		if _, err := m.Import(ipath); err != nil {
			return nil, err
		}
		for _, f := range p.files {
			m.index(p, f)
		}
	}
	return m, nil
}

// Import makes module a types.Importer: a module package is type-checked from
// the files loadModule parsed, anything else from the standard library's
// source.
func (m *module) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.pkg == nil {
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(path, m.fset, p.files, m.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// index records the top-level declarations of one file, and its roots.
func (m *module) index(p *modPkg, f *ast.File) {
	main := f.Name.Name == "main"
	add := func(id *ast.Ident, key string, root bool, nodes ...ast.Node) types.Object {
		obj := m.info.Defs[id]
		if obj == nil || id.Name == "_" {
			if root || main {
				m.roots = append(m.roots, nodes...)
			}
			return nil
		}
		m.decls[obj] = &decl{dir: p.dir, key: p.dir + "." + key, nodes: nodes}
		if root || main {
			m.rootObjs = append(m.rootObjs, obj)
		}
		return obj
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil {
				key = recvName(d.Recv.List[0].Type) + "." + key
			}
			add(d.Name, key, d.Recv == nil && key == "init", d)
		case *ast.GenDecl:
			// A const block whose specs repeat an earlier one is an
			// enumeration: removing one member renumbers the rest, so its
			// members are reached together.
			var last ast.Node
			var consts []types.Object
			enumeration := false
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					obj := add(s.Name, s.Name.Name, false, s)
					if obj == nil {
						continue
					}
					if st, ok := obj.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); f.Name() != "_" {
								m.fields[f] = &field{dir: p.dir, key: p.dir + "." + s.Name.Name + "." + f.Name(), owner: obj}
							}
						}
					}
				case *ast.ValueSpec:
					nodes := []ast.Node{s}
					if len(s.Values) > 0 {
						last = s
					} else if d.Tok == token.CONST && last != nil {
						nodes = append(nodes, last)
						enumeration = true
					}
					for _, id := range s.Names {
						obj := add(id, id.Name, d.Tok == token.VAR && len(s.Values) > 0, nodes...)
						if obj != nil && d.Tok == token.CONST {
							consts = append(consts, obj)
						}
					}
				}
			}
			if enumeration {
				for _, obj := range consts {
					m.decls[obj].group = consts
				}
			}
		}
	}
}

// walker holds the state of one reachability walk.
type walker struct {
	*module
	reached map[types.Object]bool
	queue   []ast.Node
	types   []*types.TypeName // reached named types of the module
	ifaces  map[*types.Interface]bool

	set, read map[*types.Var]bool        // fields reached syntax sets, reads
	target    map[*ast.SelectorExpr]bool // selectors only assigned to
	defaults  types.Object               // the type whose withDefaults is being visited
}

// mark reaches one object; only the module's top-level declarations are
// tracked.
func (w *walker) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := w.decls[obj]
	if d == nil || w.reached[obj] {
		return
	}
	w.reached[obj] = true
	w.queue = append(w.queue, d.nodes...)
	for _, g := range d.group {
		w.mark(g)
	}
	if tn, ok := obj.(*types.TypeName); ok {
		w.types = append(w.types, tn)
	}
}

// visit marks every object a node uses, notes every interface among the
// types it mentions, and records the fields it sets and reads.
//
// A field is set by an assignment, op-assignment, ++/-- or range whose
// target reaches it through selectors, index expressions and *; by &x.f; by
// a pointer-method call on it when it is not a pointer itself; by a
// composite literal that lists it or lists every field unkeyed; and by an
// Unmarshal or Decode call given a value it is part of. Inside its own
// type's withDefaults method none of these sets it: a default is the value
// the program gets when it sets nothing. A field is read by every selector
// but the target of an assignment, op-assignment, ++/-- or range (a counter
// that is only updated is never read), by a selection whose embedded path
// passes through it, and whenever a value it is part of flows into an
// interface (a call argument, a result or a composite-literal element), where
// encoding/json, html/template and fmt read it by reflection.
func (w *walker) visit(n ast.Node) {
	w.defaults = nil
	if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
		recv := w.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			w.defaults = named.Origin().Obj()
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				w.returns(n.Body, w.info.Defs[n.Name].Type())
			}
		case *ast.FuncLit:
			w.returns(n.Body, w.typeOf(n))
		case *ast.Ident:
			if obj := w.info.Uses[n]; obj != nil {
				w.mark(obj)
				w.noteIfaces(obj.Type(), map[types.Type]bool{})
			}
			return true
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				w.setTarget(l, true)
			}
		case *ast.IncDecStmt:
			w.setTarget(n.X, true)
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					w.setTarget(e, true)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				w.setTarget(n.X, false)
			}
		case *ast.CallExpr:
			w.call(n)
		case *ast.CompositeLit:
			w.compositeLit(n)
		case *ast.SelectorExpr:
			w.selector(n)
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := w.info.Types[e]; ok {
				w.noteIfaces(tv.Type, map[types.Type]bool{})
			}
		}
		return true
	})
}

// typeOf returns the type of an expression, or nil.
func (w *walker) typeOf(e ast.Expr) types.Type {
	return w.info.Types[e].Type
}

// returns records the values a function body returns into interface
// results; a nested function literal returns its own.
func (w *walker) returns(body *ast.BlockStmt, sig types.Type) {
	results := sig.(*types.Signature).Results()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) == results.Len() {
				for i, e := range n.Results {
					w.flow(results.At(i).Type(), e)
				}
			}
		}
		return true
	})
}

// under is t's underlying type, through one pointer.
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}

// setTarget records the fields an assignment to e sets: the selected field
// and every field on the way to it, through index expressions and *. Only
// the target of an assignment, op-assignment, ++/-- or range (not of &) is
// left unread.
func (w *walker) setTarget(e ast.Expr, assigned bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := w.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			for _, f := range path(sel) {
				w.setField(f)
			}
			if assigned {
				w.target[x] = true
			}
			e = x.X
		default:
			return
		}
	}
}

// setField records that reached syntax sets f, unless that syntax is the
// withDefaults method of f's own struct type.
func (w *walker) setField(f *types.Var) {
	f = f.Origin()
	if d := w.fields[f]; d == nil || d.owner != w.defaults {
		w.set[f] = true
	}
}

// selector records the fields a selector expression reads, and the field a
// pointer method called on a non-pointer field sets.
func (w *walker) selector(x *ast.SelectorExpr) {
	sel := w.info.Selections[x]
	if sel == nil {
		return
	}
	fields := path(sel)
	if !w.target[x] {
		for _, f := range fields {
			w.read[f.Origin()] = true
		}
	}
	if sel.Kind() != types.MethodVal {
		return
	}
	if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
		return
	}
	base := w.typeOf(x.X)
	if len(fields) > 0 {
		base = fields[len(fields)-1].Type()
	}
	if _, ptr := base.Underlying().(*types.Pointer); !ptr {
		for _, f := range fields {
			w.setField(f)
		}
		w.setTarget(x.X, false)
	}
}

// path returns the fields a selection passes through, the selected field
// last when it is one.
func path(sel *types.Selection) []*types.Var {
	var fields []*types.Var
	t, index := sel.Recv(), sel.Index()
	if sel.Kind() != types.FieldVal {
		index = index[:len(index)-1]
	}
	for _, i := range index {
		st, ok := under(t).(*types.Struct)
		if !ok {
			break
		}
		f := st.Field(i)
		fields = append(fields, f)
		t = f.Type()
	}
	return fields
}

// call records the fields a call's arguments carry into interface
// parameters, and the fields an Unmarshal or Decode call sets.
func (w *walker) call(c *ast.CallExpr) {
	var name string
	switch f := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	if name == "Unmarshal" || name == "Decode" {
		for _, a := range c.Args {
			fieldsOf(w.typeOf(a), w.set, map[types.Type]bool{})
		}
	}
	sig, ok := w.typeOf(c.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range c.Args {
		var p types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			p = params.At(params.Len() - 1).Type()
			if !c.Ellipsis.IsValid() {
				p = p.(*types.Slice).Elem()
			}
		case i < params.Len():
			p = params.At(i).Type()
		}
		w.flow(p, a)
	}
}

// compositeLit records the fields a struct literal sets, and the elements a
// literal carries into interface-typed slots.
func (w *walker) compositeLit(lit *ast.CompositeLit) {
	switch t := under(w.typeOf(lit)).(type) {
	case *types.Struct:
		for i, e := range lit.Elts {
			f := t.Field(i)
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				f, e = w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
			}
			w.setField(f)
			w.flow(f.Type(), e)
		}
	case interface{ Elem() types.Type }: // slice, array, map
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			w.flow(t.Elem(), e)
		}
	}
}

// flow records that the value of e goes into a slot of type to: when to is
// an interface and the value is not, reflection may read every field the
// value carries.
func (w *walker) flow(to types.Type, e ast.Expr) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	if from := w.typeOf(e); from != nil && !types.IsInterface(from) {
		fieldsOf(from, w.read, map[types.Type]bool{})
	}
}

// fieldsOf marks every field of t's structs, through pointers, containers
// and nested structs; done holds the types already walked.
func fieldsOf(t types.Type, mark map[*types.Var]bool, done map[types.Type]bool) {
	if t == nil || done[t] {
		return
	}
	done[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			mark[u.Field(i).Origin()] = true
			fieldsOf(u.Field(i).Type(), mark, done)
		}
	case *types.Map:
		fieldsOf(u.Key(), mark, done)
		fieldsOf(u.Elem(), mark, done)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		fieldsOf(u.Elem(), mark, done)
	}
}

// noteIfaces records the interfaces with methods that t is or is built from
// (through pointers, containers, signatures and struct fields), since a value
// may be converted to any of them.
func (w *walker) noteIfaces(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		w.noteIfaces(u.Underlying(), seen)
	case *types.Interface:
		if u.NumMethods() > 0 {
			w.ifaces[u] = true
		}
	case *types.Pointer:
		w.noteIfaces(u.Elem(), seen)
	case *types.Slice:
		w.noteIfaces(u.Elem(), seen)
	case *types.Array:
		w.noteIfaces(u.Elem(), seen)
	case *types.Chan:
		w.noteIfaces(u.Elem(), seen)
	case *types.Map:
		w.noteIfaces(u.Key(), seen)
		w.noteIfaces(u.Elem(), seen)
	case *types.Signature:
		w.noteIfaces(u.Params(), seen)
		w.noteIfaces(u.Results(), seen)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			w.noteIfaces(u.At(i).Type(), seen)
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			w.noteIfaces(u.Field(i).Type(), seen)
		}
	}
}

// run walks until no declaration, interface or implicit method adds another.
func (w *walker) run() {
	for {
		for len(w.queue) > 0 {
			n := w.queue[len(w.queue)-1]
			w.queue = w.queue[:len(w.queue)-1]
			w.visit(n)
		}
		for _, tn := range w.types {
			w.markMethods(tn)
		}
		if len(w.queue) == 0 {
			return
		}
	}
}

// markMethods reaches the methods of a reached named type that an interface
// seen so far calls, or that the standard library calls implicitly.
func (w *walker) markMethods(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) {
		return
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); implicitMethods[m.Name()] {
			w.mark(m)
		}
	}
	ptr := types.NewPointer(named)
	for iface := range w.ifaces {
		if !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			if m, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); m != nil {
				w.mark(m)
			}
		}
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
