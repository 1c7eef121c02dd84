package main

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/netsim/app"
	"repro/internal/netsim/transport"
)

// workload is one scenario family: a builder for a fresh network per
// seed, the fixed virtual time each scenario runs, and what its result
// must show to count as correct.
type workload struct {
	name       string
	durationUs float64

	// shards is the engine count the plan must produce; qoeUsers is the
	// user count Result.QoE must hold (0: no QoE block at all).
	shards   int
	qoeUsers int

	// roamIntervalUs is the mobility tick period (0: nothing moves).
	roamIntervalUs float64

	// build makes the scenario for one seed. With a tracer it also
	// routes every transport.Conn call through a timing wrapper and
	// returns the connections, so their counters can be read after Run.
	build func(seed int64, tr *tracer) (*netsim.Network, []*transport.Conn)

	// check, when set, holds the workload's own correctness conditions,
	// on top of the ones verify applies to every workload.
	check func(r netsim.Result) error
}

// workloads lists the benchmark's scenarios. The floor sizes define the
// workloads; the virtual durations keep one scenario at a few host
// seconds, so a timed run holds many of them and reports their median.
var workloads = []workload{floorObss(), citySharded(), stadiumHt()}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// floorObss is the 100-BSS × 40-station co-channel floor with OBSS-PD
// reuse at −72 dBm over legacy −82 dBm carrier sense, on one engine. The
// carrier-sense scan and the event heap carry the run; there is no
// transport, rate control, aggregation, mobility or sharding. (At −62
// dBm most attempts collide, which measures collisions, not the scan.)
func floorObss() workload {
	cfg := netsim.DefaultConfig()
	cfg.ObssPdThresholdDBm = -72
	build := netsim.LargeFloor(cfg, 100, 40, 10, 1)
	return workload{
		name:       "floor-obss",
		durationUs: 1e6,
		shards:     1,
		build:      openLoop(build),
		check: func(r netsim.Result) error {
			if r.ObssIgnores == 0 || r.ObssReuseTx == 0 {
				return fmt.Errorf("spatial reuse never engaged: %d ignores, %d reuse transmissions",
					r.ObssIgnores, r.ObssReuseTx)
			}
			return nil
		},
	}
}

// citySharded is the 1024-BSS × 3-station floor on the 8-channel plan at
// −62 dBm carrier sense, split over two engines: the only workload that
// plans shards and runs the sharded driver on both cores, and the one
// whose 4096-node gain matrix makes setup a large share of the scenario.
func citySharded() workload {
	cfg := netsim.DefaultConfig()
	cfg.CSThresholdDBm = -62
	cfg.Shards = 2
	build := netsim.LargeFloor(cfg, 1024, 3, 32, 1, 6, 11, 36, 40, 44, 48, 52)
	return workload{
		name:       "city-sharded",
		durationUs: 0.1e6,
		shards:     2,
		build:      openLoop(build),
	}
}

// Stadium shape: app.StadiumIngress with 16 BSSs × 16 users.
const (
	stadiumBSS      = 16
	stadiumUsers    = 16
	stadiumRoamUs   = 500e3 // the preset's mobility tick
	stadiumSpacingM = 8
)

// stadiumHt is app.StadiumIngress under two-stream 40 MHz HT with
// Minstrel, A-MPDU and EDCA: closed-loop transport and app callbacks,
// Block-ACK, rate control and random-waypoint mobility on 272 nodes,
// where setup and carrier sense are trivial.
func stadiumHt() workload {
	cfg := netsim.HtConfig(2, 40)
	edca := netsim.DefaultEdca(cfg.Dcf, cfg.QueueLimit)
	cfg.Edca = &edca
	preset := app.StadiumIngress(cfg, stadiumBSS, stadiumUsers)
	return workload{
		name:           "stadium-ht",
		durationUs:     20e6,
		shards:         1,
		qoeUsers:       stadiumBSS * stadiumUsers,
		roamIntervalUs: stadiumRoamUs,
		build: func(seed int64, tr *tracer) (*netsim.Network, []*transport.Conn) {
			if tr == nil {
				return preset(seed), nil
			}
			return tracedStadium(cfg, seed, tr)
		},
		check: func(r netsim.Result) error {
			if r.Roams == 0 {
				return fmt.Errorf("no station roamed")
			}
			return nil
		},
	}
}

func openLoop(build func(int64) *netsim.Network) func(int64, *tracer) (*netsim.Network, []*transport.Conn) {
	return func(seed int64, _ *tracer) (*netsim.Network, []*transport.Conn) { return build(seed), nil }
}

// tracedStadium rebuilds app.StadiumIngress from the exported pieces it
// is made of, so each web user's transport.Conn can sit behind a timing
// wrapper. Every draw happens in the preset's order, so for one seed
// both builders make the same network; the traced run checks that the
// two simulated outcomes agree.
func tracedStadium(cfg netsim.Config, seed int64, tr *tracer) (*netsim.Network, []*transport.Conn) {
	channels := []int{1, 6, 11}
	cfg.RoamIntervalUs = stadiumRoamUs
	n := netsim.New(cfg, seed)
	cols := int(math.Ceil(math.Sqrt(stadiumBSS)))
	floorW := float64(cols-1)*stadiumSpacingM + 10
	var conns []*transport.Conn
	user := 0
	for i := 0; i < stadiumBSS; i++ {
		col, row := i%cols, i/cols
		x, y := float64(col)*stadiumSpacingM, float64(row)*stadiumSpacingM
		b := n.AddAP(fmt.Sprintf("AP%d", i), x, y, channels[(col+2*row)%len(channels)])
		for s := 0; s < stadiumUsers; s++ {
			ang := 2 * math.Pi * float64(s) / stadiumUsers
			r := 3 + 5*n.Src().Float64()
			st := n.AddStation(b, fmt.Sprintf("sta%d.%d", i, s), x+r*math.Cos(ang), y+r*math.Sin(ang))
			n.SetRandomWaypoint(st, netsim.RandomWaypoint{
				MinX: -5, MinY: -5, MaxX: floorW, MaxY: floorW,
				SpeedMinMps: 0.5, SpeedMaxMps: 1.5, PauseUs: 2e6,
			})
			start := n.Src().Float64() * 500e3
			// The preset's mix cycles web, web, web, voice.
			if user%4 == 3 {
				f := n.Add(netsim.FlowSpec{From: st, AC: netsim.AC_VO,
					Gen: netsim.CBR{PayloadBytes: 160, IntervalUs: 20e3}})
				n.AddQoE(app.NewVoiceUser(f, app.VoiceConfig{}).QoE)
			} else {
				f := n.Add(netsim.FlowSpec{From: b.AP, To: st, AC: netsim.AC_BE,
					Gen: netsim.Pull{SegmentBytes: 1000}})
				c := transport.Attach(f, transport.Config{})
				u := app.NewWebUser(c, app.WebConfig{PageBytes: 80_000, ThinkMeanUs: 2e6, StartDelayUs: start},
					n.Src().Split())
				n.AddQoE(u.QoE)
				f.SetControl(timedConn{c: c, tr: tr})
				conns = append(conns, c)
			}
			user++
		}
	}
	return n, conns
}

// verify applies the checks every scenario must pass, then the
// workload's own.
func (w workload) verify(r netsim.Result) error {
	if r.Delivered == 0 {
		return fmt.Errorf("delivered nothing")
	}
	modes := 0
	for _, v := range r.ModeAttempts {
		modes += v
	}
	if modes != r.Attempts {
		return fmt.Errorf("per-mode attempts sum to %d, want Attempts = %d", modes, r.Attempts)
	}
	users := 0
	if r.QoE != nil {
		users = r.QoE.Users
	}
	if users != w.qoeUsers {
		return fmt.Errorf("QoE counts %d users, want %d", users, w.qoeUsers)
	}
	if r.Shards != w.shards {
		return fmt.Errorf("ran on %d shards, want %d (%s)", r.Shards, w.shards, r.Plan.Reason)
	}
	if w.check == nil {
		return nil
	}
	return w.check(r)
}
