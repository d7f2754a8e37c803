package insitu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported functions and methods under internal/
// that may stay although no non-test file names them, each with the reason it
// stays. A key is "dir.Func" or "dir.Type.Method", with dir relative to the
// module root; a key ending in ".*" covers a whole package.
var testOnlyAllowed = map[string]string{
	"internal/solvercheck.*":  "differential oracles and fuzz harness for lp, milp and core",
	"internal/obs/jsontest.*": "encoder-equivalence harness for the hand-written JSON encoders",

	"internal/core.GreedySolve":    "the paper's greedy baseline",
	"internal/core.FixedFrequency": "the paper's fixed-frequency baseline",

	"internal/obs.CanonicalBytes":         "determinism corpus comparison form",
	"internal/obs.DeterministicBytes":     "determinism corpus comparison form",
	"internal/obs.EventLog.SetClock":      "fake-clock seam for byte-exact tests",
	"internal/obs.Tracer.SetClock":        "fake-clock seam for byte-exact tests",
	"internal/obs.Tracer.BeginOn":         "second-track span the timeline golden records",
	"internal/obs.FlightRecorder.Dropped": "ring accessor the retention tests read",
	"internal/milp.ReadTree":              "decoder the tree round-trip tests read",
	"internal/perfbench.Workloads":        "the counter corpus TestCountersBaseline walks",
	"internal/iosim.BurstBuffer.Backlog":  "accessor the drain tests read",

	"internal/perfmodel.NewInterp1D": "1-D predictor its example and tests exercise",

	"internal/sim/amr.Grid.TotalMass":                   "conservation check the hydro tests read",
	"internal/sim/amr.Grid.TotalEnergy":                 "conservation check the hydro tests read",
	"internal/sim/amr.SedovReference.PostShockDensity":  "Sedov reference check the hydro tests read",
	"internal/sim/amr.SedovReference.PostShockPressure": "Sedov reference check the hydro tests read",
	"internal/sim/md.System.TotalEnergy":                "conservation check the MD tests read",
	"internal/sim/md.System.Momentum":                   "conservation check the MD tests read",
	"internal/sim/md.System.Rescale":                    "thermostat step the MD tests drive",
	"internal/sim/md.System.CountType":                  "composition check the MD tests read",

	"internal/trajectory.Reader.NumAtoms":      "header accessor the reader tests read",
	"internal/trajectory.Writer.Frames":        "accessor the writer tests read",
	"internal/trajectory.Writer.BytesPerFrame": "size model the on-disk test checks",

	"internal/analysis/amrkernels.L1Norm.Series":              "kernel result accessor its tests read",
	"internal/analysis/amrkernels.L2Norm.Series":              "kernel result accessor its tests read",
	"internal/analysis/amrkernels.RadialProfile.MeanDensity":  "kernel result accessor its tests read",
	"internal/analysis/amrkernels.ShockTracker.Radii":         "kernel result accessor its tests read",
	"internal/analysis/amrkernels.Vorticity.MaxSeries":        "kernel result accessor its tests read",
	"internal/analysis/mdkernels.DensityHist.Samples":         "kernel result accessor its tests read",
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
// interface (fmt.Stringer, error, json.Marshaler, http.Handler, sort and heap
// interfaces), so no file in the module needs to name them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyExports fails when an exported function or method declared
// under internal/ is named by no non-test Go file in the module (cmd/,
// benchmark/ and examples/ count as callers) and is not in testOnlyAllowed.
// Code that only its own tests reach is code to delete, not to keep.
//
// The check is syntactic: it matches identifiers by name, not by type. Its
// blind spot is that a dead function sharing its name with any live
// identifier (another package's function, a method, a struct field) counts
// as named and is not reported. It never flags live code: a function that a
// non-test file calls is always named there.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ dir, key, name string }
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := dir + "."
			if fn.Recv != nil {
				if implicitMethods[fn.Name.Name] {
					continue
				}
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			declared[fn.Name] = true
			decls = append(decls, decl{dir, key + fn.Name.Name, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	allowed := map[string]bool{}
	for _, d := range decls {
		switch {
		case named[d.name]:
		case testOnlyAllowed[d.key] != "":
			allowed[d.key] = true
		case testOnlyAllowed[d.dir+".*"] != "":
			allowed[d.dir+".*"] = true
		default:
			problems = append(problems, d.key+": no non-test file names it; delete it with its tests, or allow it in testOnlyAllowed with a reason")
		}
	}
	for k := range testOnlyAllowed {
		if !allowed[k] {
			problems = append(problems, k+": allowed in testOnlyAllowed but no test-only export matches it; drop the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
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
