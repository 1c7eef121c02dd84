package app

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/netsim/transport"
)

// Composable closed-loop floor presets: a grid of BSSs in the
// netsim.RingFloor layout LargeFloor uses, each cell populated with application users drawn
// from a per-preset mix instead of saturated senders. Every user's
// transport loop self-limits to what the MAC acknowledges, so — unlike
// the open-loop floors — the offered load tracks congestion, and the
// interesting outputs are the QoE figures on Result.QoE.

// kind names one user archetype inside a preset mix.
type kind int

const (
	kindWeb kind = iota
	kindVideo
	kindVoice
)

// floorPreset is the shared shape: AP pitch, channel plan, the
// repeating user mix, and an optional random-waypoint crowd.
type floorPreset struct {
	name     string
	spacingM float64
	channels []int
	mix      []kind

	// mobile, when set, puts every user on a random-waypoint walk over
	// the floor at the given speed range (the network gets
	// roamIntervalUs mobility ticks).
	mobile             bool
	speedMin, speedMax float64
	roamIntervalUs     float64
	staggerStartMaxUs  float64
}

// webProfile / videoProfile / voiceProfile are the fixed app
// parameters the presets share; start phases are drawn per user.
func webProfile(startUs float64) WebConfig {
	return WebConfig{PageBytes: 80_000, ThinkMeanUs: 2e6, StartDelayUs: startUs}
}

func videoProfile(startUs float64) VideoConfig {
	// 100 kB per 1 s chunk ≈ an 800 kbps SD stream; 2 chunks to
	// start, 6 s buffer cap.
	return VideoConfig{ChunkBytes: 100_000, ChunkUs: 1e6, StartupChunks: 2,
		BufferMaxUs: 6e6, StartDelayUs: startUs}
}

// voiceGen is the codec's packet stream: 160-byte frames every 20 ms,
// G.711's 64 kbps.
func voiceGen() netsim.TrafficGen {
	return netsim.CBR{PayloadBytes: 160, IntervalUs: 20e3}
}

// checkCount mirrors the netsim scenario validation idiom.
func checkCount(scenario, field string, v, minimum int) {
	if v < minimum {
		panic(fmt.Sprintf("app: %s.%s must be at least %d, got %d", scenario, field, minimum, v))
	}
}

// build assembles the preset into a scenario builder: nBSS APs on
// netsim.RingFloor's grid, usersPerBSS application users ringed around
// each, kinds cycled from the mix, every user's QoE registered on the
// network.
func (p floorPreset) build(cfg netsim.Config, nBSS, usersPerBSS int) func(seed int64) *netsim.Network {
	checkCount(p.name, "nBSS", nBSS, 1)
	checkCount(p.name, "usersPerBSS", usersPerBSS, 1)
	if p.mobile && cfg.RoamIntervalUs == 0 {
		cfg.RoamIntervalUs = p.roamIntervalUs
	}
	return func(seed int64) *netsim.Network {
		n := netsim.New(cfg, seed)
		cols := int(math.Ceil(math.Sqrt(float64(nBSS))))
		floorW := float64(cols-1)*p.spacingM + 10
		user := 0
		netsim.RingFloor(n, nBSS, usersPerBSS, cols, p.spacingM, p.channels, func(b *netsim.BSS, st *netsim.Node, _ int) {
			if p.mobile {
				n.SetRandomWaypoint(st, netsim.RandomWaypoint{
					MinX: -5, MinY: -5, MaxX: floorW, MaxY: floorW,
					SpeedMinMps: p.speedMin, SpeedMaxMps: p.speedMax,
					PauseUs: 2e6,
				})
			}
			start := n.Src().Float64() * p.staggerStartMaxUs
			switch p.mix[user%len(p.mix)] {
			case kindWeb:
				f := n.Add(netsim.FlowSpec{From: b.AP, To: st, AC: netsim.AC_BE,
					Gen: netsim.Pull{SegmentBytes: 1000}})
				u := NewWebUser(transport.Attach(f, transport.Config{}),
					webProfile(start), n.Src().Split())
				n.AddQoE(u.QoE)
			case kindVideo:
				f := n.Add(netsim.FlowSpec{From: b.AP, To: st, AC: netsim.AC_VI,
					Gen: netsim.Pull{SegmentBytes: 1000}})
				u := NewVideoUser(transport.Attach(f, transport.Config{}),
					videoProfile(start))
				n.AddQoE(u.QoE)
			case kindVoice:
				f := n.Add(netsim.FlowSpec{From: st, AC: netsim.AC_VO, Gen: voiceGen()})
				u := NewVoiceUser(f, VoiceConfig{})
				n.AddQoE(u.QoE)
			}
			user++
		})
		return n
	}
}

// ApartmentBlock is the residential evening: small 12 m cells on the
// 1/6/11 reuse plan, a video-heavy mix (every other user streaming)
// with web browsing and a voice call cycling through.
func ApartmentBlock(cfg netsim.Config, nBSS, usersPerBSS int) func(seed int64) *netsim.Network {
	return floorPreset{
		name:     "ApartmentBlock",
		spacingM: 12,
		channels: []int{1, 6, 11},
		mix:      []kind{kindVideo, kindWeb, kindVideo, kindVoice},

		staggerStartMaxUs: 500e3,
	}.build(cfg, nBSS, usersPerBSS)
}

// OfficeFloor is the enterprise floor at the LargeFloor 25 m pitch:
// web-dominated traffic with conference voice and the occasional
// video stream.
func OfficeFloor(cfg netsim.Config, nBSS, usersPerBSS int) func(seed int64) *netsim.Network {
	return floorPreset{
		name:     "OfficeFloor",
		spacingM: 25,
		channels: []int{1, 6, 11},
		mix:      []kind{kindWeb, kindWeb, kindVoice, kindVideo},

		staggerStartMaxUs: 500e3,
	}.build(cfg, nBSS, usersPerBSS)
}

// StadiumIngress is the crowd pouring in: tight 8 m cells, everyone on
// their phone refreshing pages, a voice call here and there, and the
// whole crowd milling on random-waypoint walks (which forces the
// mobility tick and its single-shard plan).
func StadiumIngress(cfg netsim.Config, nBSS, usersPerBSS int) func(seed int64) *netsim.Network {
	return floorPreset{
		name:     "StadiumIngress",
		spacingM: 8,
		channels: []int{1, 6, 11},
		mix:      []kind{kindWeb, kindWeb, kindWeb, kindVoice},

		mobile:            true,
		speedMin:          0.5,
		speedMax:          1.5,
		roamIntervalUs:    500e3,
		staggerStartMaxUs: 500e3,
	}.build(cfg, nBSS, usersPerBSS)
}
