package insitu

import (
	"go/ast"
	"go/build"
	"go/constant"
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
// stay although no program reaches them, the struct fields that may stay
// although no program sets or reads them or every program write is one
// constant, and the parameters that may stay although every call passes one
// constant, each with the reason it stays. A key is "dir.Name",
// "dir.Type.Method", "dir.Type.Field", "dir.Func(param)" or
// "dir.Type.Method(param)", with dir relative to the module root; a key
// ending in ".*" covers a whole package.
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

	"internal/sim/amr.Grid.Run":               "stepping loop the hydro tests drive",
	"internal/sim/amr.Grid.MemoryBytes":       "grid memory estimate the AMR and campaign tests read",
	"internal/sim/amr.Grid.TotalMass":         "conservation check the hydro tests read",
	"internal/sim/amr.Grid.TotalEnergy":       "conservation check the hydro tests read",
	"internal/sim/amr.SedovPostShockDensity":  "Sedov reference check the hydro tests read",
	"internal/sim/amr.SedovPostShockPressure": "Sedov reference check the hydro tests read",
	"internal/sim/md.System.Run":              "stepping loop the MD tests drive",
	"internal/sim/md.System.TotalEnergy":      "conservation check the MD tests read",
	"internal/sim/md.System.Momentum":         "conservation check the MD tests read",
	"internal/sim/md.System.Rescale":          "thermostat step the MD tests drive",
	"internal/sim/md.System.CountType":        "composition check the MD tests read",

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

	"internal/obs.NewFlightRecorder(capacity)": "benchmark/ calls it, and the harness changes only with its baselines",
	"internal/obs.EventLog.Event(typ)":         "benchmark/ calls it, and the harness changes only with its baselines",
	"internal/obs.EventLog.Event(name)":        "benchmark/ calls it, and the harness changes only with its baselines",
	"internal/obs.EventLog.Event(dur)":         "benchmark/ calls it, and the harness changes only with its baselines",
	"internal/replan.Simulate(workers)":        "benchmark/loops.go passes it",
	"internal/obs.Span.Arg(key)":               "trace vocabulary the caller owns",
	"internal/obs.Tracer.Instant(cat)":         "trace vocabulary the caller owns",
	"internal/obs.Tracer.SetProcessName(name)": "trace vocabulary the caller owns",
	"internal/obs.Tracer.SetTrackName(track)":  "trace vocabulary the caller owns",
	"internal/obs.flightJSON.Schema":           "wire key of the flight document",

	"internal/iosim.BurstBuffer.SustainedOutputTime(bytes)":    "Table 7's output cadence, which experiments owns",
	"internal/iosim.BurstBuffer.SustainedOutputTime(count)":    "Table 7's output cadence, which experiments owns",
	"internal/iosim.BurstBuffer.SustainedOutputTime(interval)": "Table 7's output cadence, which experiments owns",
	"internal/core.EstimateColumns(limit)":                     "schedd's admission limit",
	"internal/lp.Problem.FirstViolation(tol)":                  "diagnostic tolerance the solver tests tighten to 1e-7 and 1e-9; programs check at RowTol",

	"internal/core.PlacementResources.NetBandwidth":  "problem input a caller describes",
	"internal/core.PlacementResources.StageMemTotal": "problem input a caller describes",
	"internal/machine.Machine.MemPerNode":            "problem input a caller describes",
	"internal/moldable.Config.MemThreshold":          "problem input a caller describes",
	"internal/moldable.Config.Steps":                 "problem input a caller describes",
	"internal/moldable.Config.ThresholdPct":          "problem input a caller describes",
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
// program, when a field of a reached struct is never set or never read, when
// every program write of a field stores one constant, or when every call of a
// function passes one parameter the same constant, unless testOnlyAllowed
// names it. Code that only its own tests reach is code to delete, and a value
// that only tests vary is a constant. See unreachable for what "reached"
// means, and visit for what sets, reads and writes a field.
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
// other declarations are reached, from two programs, only through an
// interface, a generic instance or an allowlisted root. Of its fields, one is
// never set, one is never set although its pointer methods are called, one
// is set only by its
// type's withDefaults, one is only written and one is only added to; the
// others are set by a program as well as by withDefaults, set only by
// another type's withDefaults, set only through nested index expressions, a
// zero-value mutex's Lock, elided composite literals or a range, or read
// only by reflection through an interface. Of its values, one parameter gets
// the same constant at its one call and one field the same constant from
// every literal of two programs; a parameter the two programs pass different
// constants, a field of a type cmd/tool declares zero, a field of a type
// new([4]Slot) makes zero, a method an interface reaches too and a function
// called as a value each hold one constant at every place the rules look
// but are not. Only the dead method, the five dead fields, the one parameter
// and the one field may be reported.
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
		"internal/lib.Grid.Side: every program write is int 4; fold it into a constant at its use, or allow it in testOnlyAllowed with a reason",
		"internal/lib.Scale(factor): every call passes int 10; fold it into a constant at its use, or allow it in testOnlyAllowed with a reason",
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
//
// It also returns one line per field of a reached struct under internal/
// that programs never set or never read, or whose every write stores one
// constant (see oneWrite), and one per parameter of a reached function or
// method under internal/ that every static call from reached syntax passes
// the same constant (go/types' exact value; nil counts). A variadic
// parameter is not checked, nor a function reached other than by a static
// call (a function value, a method value or expression), nor a method that
// callers the module does not show may reach (see viaInterface).
func unreachable(root string, allowed map[string]string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	w := &walker{
		module: m, reached: map[types.Object]bool{}, ifaces: map[*types.Interface]bool{},
		set: map[*types.Var]bool{}, read: map[*types.Var]bool{}, target: map[*ast.SelectorExpr]bool{},
		args: map[*types.Var]map[value]bool{}, called: map[*ast.Ident]bool{}, valued: map[*types.Func]bool{},
		writes: map[*types.Var]map[value]bool{}, defaults: map[*types.Var]map[value]bool{},
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
	// report adds a problem unless key or its package is allowed.
	report := func(dir, key, why, fix string) {
		allow := false
		for _, k := range []string{key, dir + ".*"} {
			if allowed[k] != "" {
				allow, stale[k] = true, false
			}
		}
		if !allow {
			problems = append(problems, key+": "+why+"; "+fix+", or allow it in testOnlyAllowed with a reason")
		}
	}
	const fold = "fold it into a constant at its use"
	for f, d := range m.fields {
		if !w.reached[d.owner] || !strings.HasPrefix(d.dir, "internal/") {
			continue
		}
		switch {
		case !byPrograms[d.owner]:
			if v, ok := w.oneWrite(f); ok && w.read[f] {
				report(d.dir, d.key, "every program write is "+v.String(), fold)
			}
		case !w.set[f]:
			report(d.dir, d.key, "no program sets it", "delete it with what it guards")
		case !w.read[f]:
			report(d.dir, d.key, "no program reads it", "delete it with what it guards")
		default:
			if v, ok := w.oneWrite(f); ok {
				report(d.dir, d.key, "every program write is "+v.String(), fold)
			}
		}
	}
	for obj, d := range m.decls {
		fn, ok := obj.(*types.Func)
		if !ok || !w.reached[obj] || !strings.HasPrefix(d.dir, "internal/") || w.valued[fn] || w.viaInterface(fn) {
			continue
		}
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if sig.Variadic() && i == sig.Params().Len()-1 {
				break
			}
			if vals := w.args[p]; len(vals) == 1 {
				for v := range vals {
					if v.key != "" {
						report(d.dir, d.key+"("+p.Name()+")", "every call passes "+v.String(), fold)
					}
				}
			}
		}
	}
	for k, s := range stale {
		if s {
			problems = append(problems, k+": allowed in testOnlyAllowed but a program reaches it (a field: sets, reads and varies it; a parameter: varies it), or nothing declares it; drop the entry")
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
			Instances: map[*ast.Ident]types.Instance{},
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
	owner     types.Object               // the type whose withDefaults is being visited
	guarded   map[*ast.AssignStmt]bool   // its assignments that replace a zero
	replacing bool                       // whether the assignment being visited is one

	args   map[*types.Var]map[value]bool // the values static calls pass each parameter
	called map[*ast.Ident]bool           // function names in a call's Fun position
	valued map[*types.Func]bool          // functions used other than by a static call

	writes   map[*types.Var]map[value]bool // the values reached syntax writes to each field
	defaults map[*types.Var]map[value]bool // the values its owner's withDefaults writes
}

// value is a constant a call passes or a write stores: its type and exact
// value, or "nil" for the predeclared nil. The empty key is any value that is
// not a constant. zero marks the zero value of the type.
type value struct {
	key  string
	zero bool
}

func (v value) String() string { return v.key }

// constant returns the value of e.
func (w *walker) constant(e ast.Expr) value {
	tv := w.info.Types[e]
	switch {
	case tv.IsNil():
		return value{key: "nil", zero: true}
	case tv.Value != nil:
		v := value{key: types.TypeString(tv.Type, nil) + " " + tv.Value.ExactString()}
		v.zero = v == zeroValue(tv.Type)
		return v
	}
	return value{}
}

// zeroValue returns the zero value of t as a constant, or the empty value
// when it is not one (a struct, an array, a complex number).
func zeroValue(t types.Type) value {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		var c constant.Value
		switch {
		case u.Info()&types.IsBoolean != 0:
			c = constant.MakeBool(false)
		case u.Info()&types.IsString != 0:
			c = constant.MakeString("")
		case u.Info()&(types.IsInteger|types.IsFloat) != 0:
			c = constant.MakeInt64(0)
		case u.Kind() == types.UnsafePointer:
			return value{key: "nil", zero: true}
		default:
			return value{}
		}
		return value{key: types.TypeString(t, nil) + " " + c.ExactString(), zero: true}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return value{key: "nil", zero: true}
	}
	return value{}
}

// oneWrite returns the one constant every write to f stores, if there is
// one. A zero value that f's owner's withDefaults replaces counts as the
// value it writes instead.
func (w *walker) oneWrite(f *types.Var) (value, bool) {
	vals := map[value]bool{}
	for v := range w.writes[f] {
		if v.zero && w.defaults[f] != nil {
			v = value{}
			if len(w.defaults[f]) == 1 {
				for d := range w.defaults[f] {
					v = d
				}
			}
		}
		vals[v] = true
	}
	for v := range vals {
		return v, len(vals) == 1 && v.key != ""
	}
	return value{}, false
}

// viaInterface reports whether callers the module does not show may reach
// fn: the standard library through an implicit method, or any code through
// a noted interface that fn's receiver implements.
func (w *walker) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if implicitMethods[fn.Name()] {
		return true
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for iface := range w.ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(t, iface) {
				return true
			}
		}
	}
	return false
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
// types it mentions, records the fields it sets and reads and the values it
// writes to them, and records the values its static calls pass.
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
//
// A field's written values are the constant each = assignment or literal
// stores in it, and an unknown value for any other set (op-assignment,
// ++/--, range, &x.f, a pointer-method call, a field on the way to the one
// assigned), for a conversion from another struct type, and for every field
// a pointer reaches when a value flows into an empty interface, where a
// decoder may write it by reflection. Any zero value of its struct a program
// can make writes the zero value: a literal that omits the field, var x T,
// a named result, new, make of a slice or channel, clear of a slice, a map
// lookup, a receive, a type assertion, a generic instantiation, an array
// literal with gaps, and a struct or array that holds T by value made zero
// the same ways. Inside the owner's withDefaults a write is the field's
// default instead (see oneWrite).
func (w *walker) visit(n ast.Node) {
	w.owner = nil
	if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
		recv := w.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			w.owner = named.Origin().Obj()
			w.guarded = w.zeroGuarded(fd.Body)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				w.returns(n.Body, w.info.Defs[n.Name].Type())
				w.namedResults(n.Type)
			}
		case *ast.FuncLit:
			w.returns(n.Body, w.typeOf(n))
			w.namedResults(n.Type)
		case *ast.Ident:
			if obj := w.info.Uses[n]; obj != nil {
				w.mark(obj)
				w.noteIfaces(obj.Type(), map[types.Type]bool{})
				if fn, ok := obj.(*types.Func); ok && !w.called[n] {
					w.valued[fn.Origin()] = true
				}
			}
			if inst, ok := w.info.Instances[n]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					w.zeroOf(inst.TypeArgs.At(i), map[types.Type]bool{})
				}
			}
			return true
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					if obj := w.info.Defs[id]; obj != nil {
						w.zeroOf(obj.Type(), map[types.Type]bool{})
					}
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				var v value
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					v = w.constant(n.Rhs[i])
				}
				w.replacing = w.owner != nil && w.guarded[n]
				w.setTarget(l, true, v)
				w.replacing = false
			}
		case *ast.IncDecStmt:
			w.setTarget(n.X, true, value{})
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					w.setTarget(e, true, value{})
				}
			}
		case *ast.UnaryExpr:
			switch n.Op {
			case token.AND:
				w.setTarget(n.X, false, value{})
			case token.ARROW: // a closed channel yields zero values
				if ch, ok := under(w.typeOf(n.X)).(*types.Chan); ok {
					w.zeroOf(ch.Elem(), map[types.Type]bool{})
				}
			}
		case *ast.IndexExpr: // a missing map key yields a zero value
			if m, ok := under(w.typeOf(n.X)).(*types.Map); ok {
				w.zeroOf(m.Elem(), map[types.Type]bool{})
			}
		case *ast.TypeAssertExpr: // a failed comma-ok assertion yields a zero value
			if n.Type != nil {
				w.zeroOf(w.typeOf(n.Type), map[types.Type]bool{})
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
					w.flow(results.At(i).Type(), e, true)
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
//
// v is the value an assignment stores in the selected field; every other
// field on the way changes in place, which is a write of another value.
func (w *walker) setTarget(e ast.Expr, assigned bool, v value) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := w.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			fields := path(sel)
			for i, f := range fields {
				if i < len(fields)-1 {
					w.setField(f, value{})
				} else {
					w.setField(f, v)
				}
			}
			if assigned {
				w.target[x] = true
			}
			e = x.X
		default:
			return
		}
		v = value{}
	}
}

// setField records that reached syntax writes v to f, unless that syntax is
// the withDefaults method of f's own struct type: there v is the default f
// gets in place of its zero value when the write replaces only that, and an
// unknown default otherwise.
func (w *walker) setField(f *types.Var, v value) {
	f = f.Origin()
	if d := w.fields[f]; d != nil && d.owner == w.owner {
		if !w.replacing {
			v = value{}
		}
		addValue(w.defaults, f, v)
		return
	}
	w.set[f] = true
	addValue(w.writes, f, v)
}

// zeroGuarded returns the assignments of a withDefaults body that replace a
// zero value: the first statement of an if whose condition is x.f == zero or
// x.f <= zero, assigning x.f.
func (w *walker) zeroGuarded(body *ast.BlockStmt) map[*ast.AssignStmt]bool {
	guarded := map[*ast.AssignStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		is, ok := n.(*ast.IfStmt)
		if !ok || len(is.Body.List) == 0 {
			return true
		}
		cond, ok := is.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.EQL && cond.Op != token.LEQ) || !w.constant(cond.Y).zero {
			return true
		}
		as, ok := is.Body.List[0].(*ast.AssignStmt)
		if ok && len(as.Lhs) == 1 && types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
			guarded[as] = true
		}
		return true
	})
	return guarded
}

// addValue adds v to the values of x.
func addValue[K comparable](m map[K]map[value]bool, x K, v value) {
	if m[x] == nil {
		m[x] = map[value]bool{}
	}
	m[x][v] = true
}

// zeroOf records the zero values a program gets when it creates a zero t:
// every field t holds by value, through nested structs and arrays; done holds
// the types already walked.
func (w *walker) zeroOf(t types.Type, done map[types.Type]bool) {
	if t == nil || done[t] {
		return
	}
	done[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			w.setZero(u.Field(i))
			w.zeroOf(u.Field(i).Type(), done)
		}
	case *types.Array:
		w.zeroOf(u.Elem(), done)
	}
}

// setZero records a zero value of f. Unlike setField it is not a set: a
// field that only ever holds its zero value is one no program sets.
func (w *walker) setZero(f *types.Var) {
	addValue(w.writes, f.Origin(), zeroValue(f.Type()))
}

// namedResults records the zero values a function's named results start at.
func (w *walker) namedResults(ft *ast.FuncType) {
	if ft.Results == nil {
		return
	}
	for _, r := range ft.Results.List {
		if len(r.Names) > 0 {
			w.zeroOf(w.typeOf(r.Type), map[types.Type]bool{})
		}
	}
}

// writable records a write of an unknown value to every field of t's structs
// that code holding a value of t can reach through a pointer, slice, map or
// channel, as reflection can; ref says whether t itself was reached so.
func (w *walker) writable(t types.Type, ref bool, done map[types.Type]bool) {
	if t == nil || done[t] {
		return
	}
	done[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if ref {
				addValue(w.writes, u.Field(i).Origin(), value{})
			}
			w.writable(u.Field(i).Type(), ref, done)
		}
	case *types.Array:
		w.writable(u.Elem(), ref, done)
	case *types.Map:
		w.writable(u.Key(), true, done)
		w.writable(u.Elem(), true, done)
	case interface{ Elem() types.Type }: // pointer, slice, channel
		w.writable(u.Elem(), true, done)
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
			w.setField(f, value{})
		}
		w.setTarget(x.X, false, value{})
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
// parameters, the fields an Unmarshal or Decode call sets, the values a
// static call passes its callee's parameters, the zero values new, make and
// clear create, and the values a struct conversion copies.
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
	if tv := w.info.Types[c.Fun]; tv.IsType() {
		if len(c.Args) == 1 && !types.Identical(tv.Type, w.typeOf(c.Args[0])) {
			copied := map[*types.Var]bool{}
			fieldsOf(tv.Type, copied, map[types.Type]bool{})
			for f := range copied {
				addValue(w.writes, f, value{})
			}
		}
		return
	}
	fun := ast.Unparen(c.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		if sel := w.info.Selections[x]; sel == nil || sel.Kind() == types.MethodVal {
			id = x.Sel
		}
	}
	// errors.As stores an error in its target, not into the fields of the
	// error's type as a decoder would.
	stores := true
	switch obj := w.info.Uses[id].(type) {
	case *types.Func:
		w.called[id] = true
		w.passes(obj.Origin(), c)
		stores = obj.FullName() != "errors.As"
	case *types.Builtin:
		if len(c.Args) == 0 {
			break
		}
		t := w.typeOf(c.Args[0])
		switch u := under(t).(type) {
		case *types.Slice:
			if obj.Name() == "make" || obj.Name() == "clear" {
				w.zeroOf(u.Elem(), map[types.Type]bool{})
			}
		case *types.Chan:
			if obj.Name() == "make" {
				w.zeroOf(u.Elem(), map[types.Type]bool{})
			}
		}
		if obj.Name() == "new" {
			w.zeroOf(t, map[types.Type]bool{})
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
		w.flow(p, a, stores)
	}
}

// passes records the value each argument of a static call of fn passes its
// parameter; a variadic parameter is not tracked.
func (w *walker) passes(fn *types.Func, c *ast.CallExpr) {
	params := fn.Type().(*types.Signature).Params()
	n := params.Len()
	if fn.Type().(*types.Signature).Variadic() {
		n--
	}
	for i := 0; i < n; i++ {
		var v value
		if len(c.Args) >= n { // not f(g()) with a multi-value g
			v = w.constant(c.Args[i])
		}
		addValue(w.args, params.At(i), v)
	}
}

// compositeLit records the fields a struct literal sets, the zero values a
// literal leaves in the fields and elements it omits, and the elements a
// literal carries into interface-typed slots.
func (w *walker) compositeLit(lit *ast.CompositeLit) {
	switch t := under(w.typeOf(lit)).(type) {
	case *types.Struct:
		listed := map[*types.Var]bool{}
		for i, e := range lit.Elts {
			f := t.Field(i)
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				f, e = w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
			}
			listed[f.Origin()] = true
			w.setField(f, w.constant(e))
			w.flow(f.Type(), e, true)
		}
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); !listed[f.Origin()] {
				w.setZero(f)
				w.zeroOf(f.Type(), map[types.Type]bool{})
			}
		}
	case interface{ Elem() types.Type }: // slice, array, map
		gaps := false
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e, gaps = kv.Value, true
			}
			w.flow(t.Elem(), e, true)
		}
		if a, ok := t.(*types.Array); ok && int64(len(lit.Elts)) < a.Len() {
			gaps = true
		}
		if _, ok := t.(*types.Map); gaps && !ok {
			w.zeroOf(t.Elem(), map[types.Type]bool{})
		}
	}
}

// flow records that the value of e goes into a slot of type to: when to is
// an interface and the value is not, reflection may read every field the
// value carries, and when to is the empty interface that a decoder takes and
// stores says it may be one, write every field the value points to.
func (w *walker) flow(to types.Type, e ast.Expr, stores bool) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	if from := w.typeOf(e); from != nil && !types.IsInterface(from) {
		fieldsOf(from, w.read, map[types.Type]bool{})
		if stores && to.Underlying().(*types.Interface).Empty() {
			w.writable(from, false, map[types.Type]bool{})
		}
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
