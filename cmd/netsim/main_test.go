package main

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/netsim"
)

// config is netsim.DefaultConfig with the given edits applied.
func config(edits ...func(*netsim.Config)) netsim.Config {
	c := netsim.DefaultConfig()
	for _, e := range edits {
		e(&c)
	}
	return c
}

func cs(dBm float64) func(*netsim.Config) {
	return func(c *netsim.Config) { c.CSThresholdDBm = dBm }
}

func edca(txop bool) func(*netsim.Config) {
	return func(c *netsim.Config) {
		e := netsim.DefaultEdca(c.Dcf, c.QueueLimit)
		if txop {
			e = e.WithDot11eTxop(c.Dcf)
		}
		c.Edca = &e
	}
}

func ampdu(frames int, airUs float64) func(*netsim.Config) {
	return func(c *netsim.Config) {
		a := netsim.DefaultAggregation()
		a.MaxAmpduFrames, a.MaxAmpduAirUs = frames, airUs
		c.Aggregation = &a
	}
}

func ht(widthMHz int, rateControl string) func(*netsim.Config) {
	return func(c *netsim.Config) {
		c.Modes = linkmodel.HtModes(2, widthMHz)
		if widthMHz == 40 {
			c.ChannelWidthMHz = 40
		}
		c.RateControl = rateControl
	}
}

func roam(c *netsim.Config) { c.RoamIntervalUs = 1e5 }

// usageLines returns the command lines of the package doc's usage
// blocks, without the leading "netsim" and any trailing comment.
func usageLines(t testing.TB) []string {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(src), "\n") {
		if cmd, ok := strings.CutPrefix(l, "//\tnetsim "); ok {
			cmd, _, _ = strings.Cut(cmd, "#")
			lines = append(lines, strings.TrimSpace(cmd))
		}
	}
	return lines
}

// TestUsageLinesResolve: every usage line of the package doc resolves
// to the configuration written out here, shape included where the
// scenario takes one.
func TestUsageLinesResolve(t *testing.T) {
	lines := usageLines(t)
	t.Chdir("../..") // the -config lines name examples/ from the repo root
	type want struct {
		scenario string
		shape    string // "BSSxSTA [channels]"; empty where the scenario has none
		cfg      netsim.Config
	}
	closedLoop := config(edca(false), func(c *netsim.Config) { c.RoamIntervalUs = 250e3 })
	cases := map[string]want{
		"-scenario dense -bss 3 -sta 17 -channels 1 -duration 1.0": {"dense", "3x17 [1]", config()},
		"-scenario dense -channels 1,6,11 -seeds 8 -workers 4":     {"dense", "3x17 [1 6 11]", config()},
		"-scenario mix -data-mbps 4":                               {"mix", "", config()},
		"-scenario mix -edca":                                      {"mix", "", config(edca(false))},
		"-scenario mix -edca -downlink":                            {"mix", "", config(edca(false))},
		"-scenario mix -edca -txop":                                {"mix", "", config(edca(true))},
		"-scenario dense -ampdu 32":                                {"dense", "3x17 [1]", config(ampdu(32, 0))},
		"-scenario hidden":                                         {"hidden", "", config()},
		"-scenario hidden -rts 1":                                  {"hidden", "", config(func(c *netsim.Config) { c.RtsThresholdBytes = 1 })},
		"-scenario roam -rate-control arf":                         {"roam", "", config(roam, func(c *netsim.Config) { c.RateControl = "arf" })},
		"-scenario dense -ht -rate-control minstrel -ampdu 32": {"dense", "3x17 [1]",
			config(ht(20, "minstrel"), ampdu(32, 4000))},
		"-scenario dense -bond -rate-control minstrel -ampdu 32 -channels 1,5,9": {"dense", "3x17 [1 5 9]",
			config(ht(40, "minstrel"), ampdu(32, 4000))},
		"-scenario roam -downlink":                          {"roam", "", config(roam)},
		"-scenario dense -compare":                          {"dense", "3x17 [1]", config()},
		"-scenario floor":                                   {"floor", "100x10 [1 6 11]", config(cs(-62))},
		"-scenario floor -bss 144 -sta 40 -channels 1,6,11": {"floor", "144x40 [1 6 11]", config(cs(-62))},
		"-scenario floor -obss-pd -72": {"floor", "100x10 [1 6 11]",
			config(func(c *netsim.Config) { c.ObssPdThresholdDBm = -72 })},
		"-scenario floor -bss 1024 -sta 4 -channels 1,6,11,36 -shards 4": {"floor", "1024x4 [1 6 11 36]",
			config(cs(-62), func(c *netsim.Config) { c.Shards = 4 })},
		"-scenario floor -shards 4 -shard-stats": {"floor", "100x10 [1 6 11]",
			config(cs(-62), func(c *netsim.Config) { c.Shards = 4 })},
		"-scenario apartment -bss 9 -sta 8 -duration 5":        {"apartment", "9x8 [1]", config()},
		"-scenario stadium -seeds 4":                           {"stadium", "9x8 [1]", config()},
		"-config examples/closedloop.json":                     {"two-bss-closedloop", "", closedLoop},
		"-config examples/closedloop.json -seeds 8 -workers 4": {"two-bss-closedloop", "", closedLoop},
		"-config examples/closedloop.json -rts 1 -rate-control minstrel": {"two-bss-closedloop", "",
			config(edca(false), func(c *netsim.Config) {
				c.RoamIntervalUs, c.RtsThresholdBytes, c.RateControl = 250e3, 1, "minstrel"
			})},
		"-scenario single -ampdu 8 -duration 0.01 -trace run.jsonl":     {"single", "", config(ampdu(8, 0))},
		"-scenario single -trace run.bin -trace-events tx_start,tx_end": {"single", "", config()},
		"-scenario single -duration 0.002 -timeline":                    {"single", "", config()},
		"-scenario dense -sample-us 10000": {"dense", "3x17 [1]",
			config(func(c *netsim.Config) { c.SampleIntervalUs = 1e4 })},
		"-scenario floor -seeds 4 -progress": {"floor", "100x10 [1 6 11]", config(cs(-62))},
		"-scenario floor -pprof cpu.out":     {"floor", "100x10 [1 6 11]", config(cs(-62))},
	}
	if len(lines) != len(cases) {
		t.Errorf("package doc has %d usage lines, the table %d", len(lines), len(cases))
	}
	for _, line := range lines {
		w, ok := cases[line]
		if !ok {
			t.Errorf("usage line %q has no expected configuration", line)
			continue
		}
		o, err := resolve(strings.Fields(line))
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if o.scenario != w.scenario {
			t.Errorf("%s: scenario %q, want %q", line, o.scenario, w.scenario)
		}
		if shape := fmt.Sprintf("%dx%d %v", o.bss, o.sta, o.channels); w.shape != "" && shape != w.shape {
			t.Errorf("%s: shape %s, want %s", line, shape, w.shape)
		}
		if !reflect.DeepEqual(o.cfg, w.cfg) {
			t.Errorf("%s:\nconfig %+v\nwant   %+v", line, o.cfg, w.cfg)
		}
		if o.build == nil {
			t.Errorf("%s: no builder", line)
		}
	}
}

// TestResolveErrors: a bad value is an error that names the flag the
// user typed, not the scenario JSON key behind it.
func TestResolveErrors(t *testing.T) {
	t.Chdir("../..")
	for args, want := range map[string]string{
		"-rts -1":              "-rts: must not be negative",
		"-shards -1":           "-shards: must not be negative",
		"-ampdu -1":            "-ampdu: must not be negative",
		"-txop":                "-txop: needs -edca",
		"-rate-control bogus":  "-rate-control: unknown rate controller",
		"-obss-pd -82":         "-obss-pd: must be above the carrier-sense threshold -82",
		"-cs -60 -obss-pd -70": "-obss-pd: must be above the carrier-sense threshold -60",
		"-obss-pd 3":           "-obss-pd: must be a negative",
		"-cs NaN":              "-cs: must be a finite dBm figure",
		"-scenario bogus":      "unknown scenario",
		"-seeds 0":             "-seeds must be at least 1",
		"-channels 1,x":        "-channels needs",
		"-config examples/closedloop.json -bss 4":                 "-bss cannot be combined with -config",
		"-config examples/closedloop.json -scenario mix":          "-scenario cannot be combined with -config",
		"-config examples/closedloop.json -txop=true -edca=false": "-txop: needs -edca",
	} {
		_, err := resolve(strings.Fields(args))
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want one starting %q", args, err, want)
		}
	}
}

// TestConfigFileOverride: a MAC/PHY flag overwrites the -config file's
// value, and the file's other keys stay.
func TestConfigFileOverride(t *testing.T) {
	t.Chdir("../..")
	o, err := resolve([]string{"-config", "examples/closedloop.json", "-rts", "1", "-ht", "-ampdu", "16"})
	if err != nil {
		t.Fatal(err)
	}
	want := config(edca(false), ht(20, ""), ampdu(16, 4000), func(c *netsim.Config) {
		c.RoamIntervalUs, c.RtsThresholdBytes = 250e3, 1
	})
	if !reflect.DeepEqual(o.cfg, want) {
		t.Fatalf("config %+v\nwant   %+v", o.cfg, want)
	}
	if o.seeds != 2 || o.durationS != 3 {
		t.Fatalf("file's seeds/duration lost: %d seeds, %v s", o.seeds, o.durationS)
	}
}

// fuzzMaxNodes caps the networks FuzzResolve runs: a command line whose
// -bss/-sta shape implies more nodes is only resolved.
const fuzzMaxNodes = 400

// FuzzResolve: resolve never panics, and every command line it accepts
// builds a network that runs 2 ms of virtual time without a panic. The
// corpus seeds are the package-doc usage lines; plain go test runs only
// those.
//
//	go test ./cmd/netsim -run '^$' -fuzz FuzzResolve -fuzztime 60s
func FuzzResolve(f *testing.F) {
	for _, l := range usageLines(f) {
		// The -config lines name examples/ from the repo root. (f.Chdir
		// would break the fuzzing workers.)
		f.Add(strings.ReplaceAll(l, "-config examples/", "-config ../../examples/"))
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := resolve(strings.Fields(line))
		if err != nil {
			return
		}
		if o.bss > fuzzMaxNodes || o.sta > fuzzMaxNodes || o.bss*(o.sta+1) > fuzzMaxNodes {
			return
		}
		o.build(o.seed).Run(2000)
	})
}
