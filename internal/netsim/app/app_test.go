package app

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/netsim/transport"
)

// oneUserNet builds a single AP + station and returns the downlink
// Pull flow's connection.
func oneUserNet(seed int64) (*netsim.Network, *transport.Conn) {
	n := netsim.New(netsim.DefaultConfig(), seed)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 5, 0)
	f := n.Add(netsim.FlowSpec{From: b.AP, To: st, AC: netsim.AC_BE,
		Gen: netsim.Pull{SegmentBytes: 1000}})
	return n, transport.Attach(f, transport.Config{})
}

// TestWebUserRecordsPageLoads: a lone browser on a clean link loads
// several pages, and every sample lands in the QoE block.
func TestWebUserRecordsPageLoads(t *testing.T) {
	n, c := oneUserNet(1)
	u := NewWebUser(c, WebConfig{PageBytes: 60_000, ThinkMeanUs: 500e3}, n.Src().Split())
	n.AddQoE(u.QoE)
	res := n.Run(5e6)
	if res.QoE == nil || res.QoE.WebUsers != 1 {
		t.Fatalf("QoE block missing or wrong: %+v", res.QoE)
	}
	if res.QoE.PageLoads < 3 {
		t.Fatalf("only %d page loads in 5 s on a clean link", res.QoE.PageLoads)
	}
	if res.QoE.MeanPageLoadUs <= 0 || res.QoE.P95PageLoadUs < res.QoE.MeanPageLoadUs {
		t.Fatalf("degenerate PLT stats: mean=%v p95=%v", res.QoE.MeanPageLoadUs, res.QoE.P95PageLoadUs)
	}
}

// TestWebUserOneBytePages: a 1-byte mean page draws a request below 1
// byte on about half its loads; each must still send 1 byte, not panic
// in transport.Conn.Send, and load.
func TestWebUserOneBytePages(t *testing.T) {
	n, c := oneUserNet(1)
	u := NewWebUser(c, WebConfig{PageBytes: 1, ThinkMeanUs: 1}, n.Src().Split())
	n.AddQoE(u.QoE)
	res := n.Run(2e4)
	if res.QoE == nil || res.QoE.PageLoads < 10 {
		t.Fatalf("%+v page loads of 1-byte pages in 20 ms, want at least 10", res.QoE)
	}
}

// TestVideoUserCleanLink: an unconstrained stream starts quickly and
// never rebuffers.
func TestVideoUserCleanLink(t *testing.T) {
	n, c := oneUserNet(2)
	u := NewVideoUser(c, VideoConfig{ChunkBytes: 40_000, ChunkUs: 1e6,
		StartupChunks: 2, BufferMaxUs: 6e6})
	n.AddQoE(u.QoE)
	res := n.Run(8e6)
	q := res.QoE
	if q == nil || q.VideoUsers != 1 {
		t.Fatalf("QoE block missing or wrong: %+v", q)
	}
	if q.MeanStartupUs <= 0 || q.MeanStartupUs > 2e6 {
		t.Fatalf("startup delay %v us implausible for a clean link", q.MeanStartupUs)
	}
	if q.RebufferRatio != 0 || q.Rebuffers != 0 {
		t.Fatalf("clean link rebuffered: ratio=%v stalls=%d", q.RebufferRatio, q.Rebuffers)
	}
	if q.PlayedUs < 4e6 {
		t.Fatalf("only %v us played in an 8 s run", q.PlayedUs)
	}
}

// TestVideoBufferDrainHandTrace drives the analytic buffer math
// directly: 2 s of buffer crossed by a 3 s gap plays 2 s, stalls 1 s.
func TestVideoBufferDrainHandTrace(t *testing.T) {
	u := &VideoUser{cfg: VideoConfig{ChunkBytes: 1, ChunkUs: 1e6, StartupChunks: 1, BufferMaxUs: 6e6}}
	u.open, u.started, u.playing = true, true, true
	u.bufferUs = 2e6
	u.lastUs = 0
	u.advance(3e6)
	if u.playedUs != 2e6 || u.rebufferUs != 1e6 || u.rebuffers != 1 || u.playing {
		t.Fatalf("drain trace: played=%v rebuffer=%v stalls=%d playing=%v, want 2e6/1e6/1/false",
			u.playedUs, u.rebufferUs, u.rebuffers, u.playing)
	}
	// One chunk meets the startup depth (StartupChunks=1): playback
	// resumes, and with the buffer far from its cap the next request
	// is immediate.
	if wait := u.creditChunk(3.5e6); wait != 0 {
		t.Fatalf("pacing wait %v, want immediate request", wait)
	}
	if !u.playing {
		t.Fatal("playback did not resume at the startup depth")
	}
	if u.rebufferUs != 1.5e6 {
		t.Fatalf("stall time %v, want 1.5e6 (the wait until the chunk landed)", u.rebufferUs)
	}
}

// TestVoiceMOSProperties pins the E-model's shape: clean calls score
// toll quality, loss and delay each drag the score down, and a dead
// call bottoms out at 1.
func TestVoiceMOSProperties(t *testing.T) {
	clean := &VoiceUser{cfg: VoiceConfig{CodecDelayMs: 25}}
	for i := 0; i < 100; i++ {
		clean.PacketFate(netsim.FateDelivered, 160, 5e3)
	}
	if mos := clean.MOS(); mos < 4.2 {
		t.Fatalf("clean call MOS=%v, want toll quality (>4.2)", mos)
	}
	lossy := &VoiceUser{cfg: VoiceConfig{CodecDelayMs: 25}}
	for i := 0; i < 80; i++ {
		lossy.PacketFate(netsim.FateDelivered, 160, 5e3)
	}
	for i := 0; i < 20; i++ {
		lossy.PacketFate(netsim.FateQueueDrop, 160, 0)
	}
	if mos := lossy.MOS(); mos >= 3 {
		t.Fatalf("20%% loss MOS=%v, want < 3", mos)
	}
	slow := &VoiceUser{cfg: VoiceConfig{CodecDelayMs: 25}}
	for i := 0; i < 100; i++ {
		slow.PacketFate(netsim.FateDelivered, 160, 300e3)
	}
	if clean.MOS() <= slow.MOS() {
		t.Fatalf("300 ms delay should score below 5 ms: %v vs %v", slow.MOS(), clean.MOS())
	}
	dead := &VoiceUser{cfg: VoiceConfig{CodecDelayMs: 25}}
	if mos := dead.MOS(); mos != 1 {
		t.Fatalf("dead call MOS=%v, want 1", mos)
	}
}

// TestPresetsProduceQoE: each preset builds, runs, and reports the
// mix's user counts.
func TestPresetsProduceQoE(t *testing.T) {
	presets := map[string]func(netsim.Config, int, int) func(int64) *netsim.Network{
		"apartment": ApartmentBlock,
		"office":    OfficeFloor,
		"stadium":   StadiumIngress,
	}
	for name, preset := range presets {
		build := preset(netsim.DefaultConfig(), 4, 4)
		res := build(1).Run(4e6)
		q := res.QoE
		if q == nil {
			t.Fatalf("%s: no QoE block", name)
		}
		if q.Users != 16 {
			t.Fatalf("%s: %d users, want 16", name, q.Users)
		}
		if q.WebUsers == 0 || q.VoiceUsers == 0 {
			t.Fatalf("%s: mix missing web or voice users: %+v", name, q)
		}
		if q.PageLoads == 0 {
			t.Fatalf("%s: no page completed in 4 s", name)
		}
		if len(q.MOS) != q.VoiceUsers || q.MeanMOS <= 1 {
			t.Fatalf("%s: voice scoring broken: %+v", name, q)
		}
	}
}

// TestPresetDeterminism: same seed, same preset → bit-identical QoE,
// including the mobile (random-waypoint) stadium.
func TestPresetDeterminism(t *testing.T) {
	for name, preset := range map[string]func(netsim.Config, int, int) func(int64) *netsim.Network{
		"apartment": ApartmentBlock,
		"stadium":   StadiumIngress,
	} {
		build := preset(netsim.DefaultConfig(), 4, 4)
		a := build(7).Run(3e6)
		b := build(7).Run(3e6)
		if !reflect.DeepEqual(a.QoE, b.QoE) {
			t.Fatalf("%s: QoE diverged between identical runs:\n%+v\n%+v", name, a.QoE, b.QoE)
		}
		if a.Delivered != b.Delivered || a.AggGoodputMbps != b.AggGoodputMbps {
			t.Fatalf("%s: MAC result diverged between identical runs", name)
		}
	}
}

// TestMergeQoEPoolsAcrossSeeds: cross-seed pooling keeps raw samples,
// so the merged percentile is computed over the union.
func TestMergeQoEPoolsAcrossSeeds(t *testing.T) {
	build := OfficeFloor(netsim.DefaultConfig(), 2, 4)
	jobs := netsim.SeedSweep("office", build, 3e6, 100, 3)
	results := netsim.ScenarioRunner{Workers: 2}.RunAll(jobs)
	merged := netsim.MergeQoE(results)
	if merged == nil {
		t.Fatal("merged QoE is nil")
	}
	wantUsers, wantLoads := 0, 0
	for _, r := range results {
		wantUsers += r.QoE.Users
		wantLoads += r.QoE.PageLoads
	}
	if merged.Users != wantUsers || merged.PageLoads != wantLoads {
		t.Fatalf("merge lost users or samples: %d/%d, want %d/%d",
			merged.Users, merged.PageLoads, wantUsers, wantLoads)
	}
	if len(merged.PageLoadUs) != wantLoads {
		t.Fatalf("raw samples not pooled: %d, want %d", len(merged.PageLoadUs), wantLoads)
	}
	if merged.P95PageLoadUs < merged.MeanPageLoadUs/2 {
		t.Fatalf("pooled percentile implausible: mean=%v p95=%v",
			merged.MeanPageLoadUs, merged.P95PageLoadUs)
	}
}
