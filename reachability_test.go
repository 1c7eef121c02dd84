package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"sort"
	"strings"
	"testing"
)

// TestReachability fails on any top-level declaration under internal/
// that no program in the module can reach and that reachableAllowlist
// does not name. internal/ packages can only be imported from inside
// this module, so an unreachable declaration there is dead code kept
// alive by its own tests.
//
// The roots are every main package (cmd/*, examples/* and the nested
// perfbench module) and every init func. A declaration is reached when
// a reached declaration refers to it. A method is also reached when its
// receiver type is reached and its name appears in an interface a value
// can be called through (see unreachableDecls): the conservative
// stand-in for dynamic dispatch.
func TestReachability(t *testing.T) {
	pkgs, err := listPackages(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := listPackages("perfbench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = mergePackages(pkgs, bench)

	unreached, err := unreachableDecls(pkgs, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	dead := map[string]bool{}
	for _, name := range unreached {
		dead[name] = true
		if _, ok := reachableAllowlist[name]; !ok {
			t.Errorf("%s: no program reaches it; delete it, or add it to reachableAllowlist naming the test that needs it", name)
		}
	}
	for name := range reachableAllowlist {
		if !dead[name] {
			t.Errorf("reachableAllowlist: %s no longer exists or is now reachable; drop its entry", name)
		}
	}
}

// reachableAllowlist names the unreachable declarations under internal/
// that stay, each with the test that needs it. A key is the package path
// below internal/, a dot and the name; a method is keyed by its receiver
// type name and its own name.
var reachableAllowlist = map[string]string{
	"channel.MIMOFlat":                   "TestMIMOFlatShape; the i.i.d. channel mimo's detector tests run over",
	"channel.CorrelatedMIMOFlat":         "TestAntennaCorrelationErodesCapacity: the correlated channel OpenLoopCapacity is averaged over",
	"channel.sqrtCorrelation":            "CorrelatedMIMOFlat's correlation factors",
	"coop.DirectOutageAnalytic":          "TestDirectOutageMatchesAnalytic: the analytic oracle for OutageProbability",
	"dsp.Convolve":                       "TestTDLApplyMatchesConvolution: the oracle for channel.TDL.Apply",
	"fec.ViterbiDecodeHard":              "TestViterbiSoftBeatsHard: the hard-decision comparator for the soft decoder",
	"fec.Deinterleave":                   "TestInterleaveRoundTrip: the inverse that checks Interleave",
	"fec.LDPC.CheckParity":               "TestLDPCEncodeSatisfiesParity: checks the encoder's codewords",
	"mac.Dot11bDcf":                      "netsim's TestDot11eEdcaTxopDefaults: covers the 11b TXOP column of WithDot11eTxop",
	"mac.ArfController.Probing":          "TestArfProbeFailureFallsBackImmediately: observes the ARF probe state",
	"matrix.FromRows":                    "the matrix and mimo tests build their fixtures with it",
	"matrix.Matrix.FrobeniusNorm":        "checkSVD and the channel tests measure residuals and power with it",
	"mimo.NewZF":                         "TestMMSEBeatsZFAtLowSNR: the zero-forcing reference MMSE must beat",
	"mimo.Detector.DetectBlock":          "TestMMSEBeatsZFAtLowSNR: runs both detectors over a burst",
	"modem.Scheme.DemodulateHard":        "TestModulateRoundTrip and ofdm's round-trip tests: the reference hard demapper",
	"modem.HardBitsFromLLRs":             "TestSoftDemodSignsMatchHard: slices the soft demapper's LLRs for the hard comparison",
	"netsim.csQuiet":                     "the zero csVerdict, which hears returns for a frame below energy detect",
	"netsim.Network.Plan":                "TestShardPlanFallbacks and the other shard tests observe the plan with it",
	"netsim.Network.CheckFlowsCoSharded": "assertFlowsCoSharded and transport's TestCrossBssConnShardedDeterminism",
	"netsim/trace.Multi":                 "TestMultiFansOut; README documents it for fanning one probe out to several sinks",
	"netsim/trace.multi":                 "Multi's fan-out",
	"netsim/trace.multi.OnEvent":         "Multi's fan-out",
	"netsim/trace.ReadBinary":            "TestBinaryRoundTrip: WriteBinary's round-trip oracle",
	"netsim/trace.Tracer.Reset":          "BenchmarkE27LargeFloor reuses one tracer across iterations",
	"netsim/trace.Tracer.Total":          "BenchmarkE27LargeFloor and TestTracerFilters count the recorded events",
	"netsim/trace.WithCapacity":          "TestTracerRingKeepsNewest: sizes the ring under test",
	"netsim/trace.WithWindow":            "TestTracerFilters: the time-window filter under test",
	"ofdm.Grid.PerfectChannelEstimate":   "TestLTFChannelEstimation: the genie reference for EstimateChannel",
	"phy.SNRForPER":                      "the calibration tests read each PHY's PER threshold with it",
	"rng.Source.Gaussian":                "TestViterbiSoftBeatsHard and TestLDPCDecodeCorrectsNoise: the real-valued AWGN their decoders run over",
	"rng.Source.Rayleigh":                "TestRayleighMatchesComplexMagnitude: the reference distribution for ComplexGaussian",
	"sim.Engine.Pending":                 "TestCancel and the other sim tests observe the event heap with it",
}

// listedPackage is the part of `go list -json` output the scan uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Module     *struct{ Path string }
}

// listPackages runs `go list -deps -export -json` on pattern in dir. The
// export data lets the standard library load without type-checking its
// source.
func listPackages(dir, pattern string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// mergePackages appends the packages of more that pkgs lacks, keeping
// dependency order: each list is already ordered dependencies first.
func mergePackages(pkgs, more []*listedPackage) []*listedPackage {
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.ImportPath] = true
	}
	for _, p := range more {
		if !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// dynamicMethods are the methods the standard library finds by type
// assertion on a value it was handed as any: error, fmt.Stringer,
// fmt.Formatter, fmt.GoStringer, json.Marshaler, json.Unmarshaler and
// their encoding.Text counterparts.
var dynamicMethods = []string{"Error", "String", "Format", "GoString",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

// unreachableDecls type-checks the module packages in pkgs and returns
// the allowlist keys of the unreachable declarations whose package path
// starts with prefix, sorted.
//
// The method rule's interfaces are the ones the module declares or
// names, the ones whose methods it calls, the interface parameters it
// passes a concrete value to, and dynamicMethods.
func unreachableDecls(pkgs []*listedPackage, prefix string) ([]string, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	// Module packages are checked from source, so every reference
	// resolves to the one object the scan tracks; the rest load from
	// export data.
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	// keys and refs hold each top-level declaration of a module
	// package: its allowlist key and the objects its syntax uses.
	keys := map[types.Object]string{}
	refs := map[types.Object][]types.Object{}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []types.Object
	ifaceNames := map[string]bool{}
	for _, name := range dynamicMethods {
		ifaceNames[name] = true
	}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				ifaceNames[iface.Method(i).Name()] = true
			}
		}
	}

	for _, p := range pkgs {
		if p.Module == nil || p.Module.Path != "repro" && p.Module.Path != "repro/perfbench" {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if tp, ok := checked[path]; ok {
				return tp, nil
			}
			return gc.Import(path)
		})}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tpkg

		rel := strings.TrimPrefix(p.ImportPath, prefix)
		declare := func(obj types.Object, node ast.Node) {
			keys[obj] = rel + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok {
				if recv := receiverType(fn); recv != nil {
					keys[obj] = rel + "." + recv.Name() + "." + fn.Name()
					methods[recv] = append(methods[recv], fn)
				}
			}
			var used []types.Object
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					used = append(used, origin(info.Uses[id]))
				}
				return true
			})
			// A constant or variable whose type comes from an earlier
			// line of its group names no type in its own syntax.
			if _, isType := obj.(*types.TypeName); !isType {
				if named, ok := obj.Type().(*types.Named); ok {
					used = append(used, named.Obj())
				}
			}
			refs[obj] = used
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					declare(obj, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(info.Defs[spec.Name], spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								if name.Name != "_" {
									declare(info.Defs[name], spec)
								}
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					addIface(info.Types[n].Type)
				case *ast.Ident:
					if tn, ok := info.Uses[n].(*types.TypeName); ok {
						addIface(tn.Type())
					}
				case *ast.SelectorExpr:
					if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceNames[fn.Name()] = true
						}
					}
				case *ast.CallExpr:
					fun := info.Types[n.Fun]
					if fun.IsType() {
						addIface(fun.Type)
						break
					}
					sig, ok := fun.Type.Underlying().(*types.Signature)
					if !ok || fun.IsBuiltin() {
						break
					}
					for i, arg := range n.Args {
						if at := info.Types[arg].Type; at != nil && !types.IsInterface(at) {
							addIface(paramType(sig, i, n.Ellipsis.IsValid()))
						}
					}
				}
				return true
			})
		}
	}

	reached := map[types.Object]bool{}
	work := roots
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		work = append(work, refs[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceNames[m.Name()] {
					work = append(work, m)
				}
			}
		}
	}

	var out []string
	for obj, key := range keys {
		if !reached[obj] && strings.HasPrefix(obj.Pkg().Path(), prefix) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function, method or field to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverType returns the named type a method is declared on, or nil
// for a plain function.
func receiverType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// paramType is the type sig gives its i-th argument: the element type
// for the variadic tail, unless the call spreads a slice into it.
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	params := sig.Params()
	last := params.Len() - 1
	if !sig.Variadic() || i < last {
		return params.At(i).Type()
	}
	if spread {
		return params.At(last).Type()
	}
	return params.At(last).Type().(*types.Slice).Elem()
}
