// Package app puts application models on top of the closed-loop
// transport: a web user loading pages with think time between them, a
// buffered video session requesting chunks ahead of playback, and a
// voice call scored with the ITU E-model. Each user reports one
// netsim.UserQoE — the per-user experience block collect pools into
// Result.QoE — so dense-deployment scenarios can be judged on what
// users see (page-load percentiles, rebuffer ratio, MOS) rather than
// on saturated MAC throughput.
//
// All user randomness (think times, page sizes, start phases) comes
// from rng.Sources split from the network's seed stream at build time,
// and all timers ride the owning flow's engine clock, so a run with
// app users is exactly as reproducible as a bare MAC run.
package app

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/netsim/transport"
	"repro/internal/rng"
)

// checkPositive mirrors the netsim validation idiom: panic early with
// the parameter's name rather than simulate nonsense.
func checkPositive(model, field string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		panic(fmt.Sprintf("app: %s.%s must be positive and finite, got %v", model, field, v))
	}
}

// WebConfig parameterizes one web user.
type WebConfig struct {
	// PageBytes is the mean page size; each load draws uniformly in
	// [0.5, 1.5] of it, and requests at least 1 byte.
	PageBytes int

	// ThinkMeanUs is the exponential dwell between a page finishing
	// and the next request.
	ThinkMeanUs float64

	// StartDelayUs staggers the user's first request (presets draw it
	// per user so a floor does not start in lockstep).
	StartDelayUs float64
}

func (c WebConfig) validate() {
	checkPositive("WebConfig", "PageBytes", float64(c.PageBytes))
	checkPositive("WebConfig", "ThinkMeanUs", c.ThinkMeanUs)
	if c.StartDelayUs < 0 || math.IsNaN(c.StartDelayUs) || math.IsInf(c.StartDelayUs, 0) {
		panic(fmt.Sprintf("app: WebConfig.StartDelayUs must be non-negative and finite, got %v", c.StartDelayUs))
	}
}

// WebUser drives request/think/request page loads over one transport
// connection and records the page-load-time distribution.
type WebUser struct {
	conn *transport.Conn
	cfg  WebConfig
	src  *rng.Source

	pltUs []float64
}

// NewWebUser binds a web user to the connection (taking its OnStart
// hook) with src as the user's private draw stream.
func NewWebUser(conn *transport.Conn, cfg WebConfig, src *rng.Source) *WebUser {
	cfg.validate()
	u := &WebUser{conn: conn, cfg: cfg, src: src}
	conn.OnStart = func() { conn.Schedule(cfg.StartDelayUs, u.request) }
	return u
}

// request opens one page load; its completion records the PLT and arms
// the next request a think time later.
func (u *WebUser) request() {
	start := u.conn.NowUs()
	// A 1-byte mean draws below 1 byte half the time; a transport send
	// must carry at least one.
	size := max(1, int(float64(u.cfg.PageBytes)*(0.5+u.src.Float64())))
	u.conn.Send(size, func(now float64) {
		u.pltUs = append(u.pltUs, now-start)
		u.conn.Schedule(u.src.Exponential(u.cfg.ThinkMeanUs), u.request)
	})
}

// QoE reports the user's page-load samples (register via
// Network.AddQoE).
func (u *WebUser) QoE() netsim.UserQoE {
	return netsim.UserQoE{Kind: netsim.QoEWeb, PageLoadUs: u.pltUs}
}

// VideoConfig parameterizes one buffered video session.
type VideoConfig struct {
	// ChunkBytes is one media chunk's size; ChunkUs is the playback
	// time it carries (ChunkBytes*8/ChunkUs is the stream's bitrate).
	ChunkBytes int
	ChunkUs    float64

	// StartupChunks is the buffer depth (in chunks) required before
	// playback starts — and before it resumes after a stall.
	StartupChunks int

	// BufferMaxUs caps the playback buffer; the client stops
	// requesting ahead once the next chunk would overflow it.
	BufferMaxUs float64

	// StartDelayUs staggers the session's first request.
	StartDelayUs float64
}

func (c VideoConfig) validate() {
	checkPositive("VideoConfig", "ChunkBytes", float64(c.ChunkBytes))
	checkPositive("VideoConfig", "ChunkUs", c.ChunkUs)
	checkPositive("VideoConfig", "StartupChunks", float64(c.StartupChunks))
	checkPositive("VideoConfig", "BufferMaxUs", c.BufferMaxUs)
	if c.BufferMaxUs < float64(c.StartupChunks)*c.ChunkUs {
		panic(fmt.Sprintf("app: VideoConfig.BufferMaxUs %v cannot hold the %d startup chunks",
			c.BufferMaxUs, c.StartupChunks))
	}
	if c.StartDelayUs < 0 || math.IsNaN(c.StartDelayUs) || math.IsInf(c.StartDelayUs, 0) {
		panic(fmt.Sprintf("app: VideoConfig.StartDelayUs must be non-negative and finite, got %v", c.StartDelayUs))
	}
}

// VideoUser is a buffered streaming session: chunks download over the
// connection, the playback buffer drains in virtual time, and the
// session records startup delay plus every stall. The buffer is
// evaluated analytically at event boundaries (chunk completions,
// request timers) — no per-frame playback events exist, so an idle
// steady-state session costs nothing on the engine.
type VideoUser struct {
	conn *transport.Conn
	cfg  VideoConfig

	sessionStartUs float64
	lastUs         float64
	open           bool // session began (start delay elapsed)
	started        bool // first frame rendered
	playing        bool
	bufferUs       float64

	startupUs  float64
	waitUs     float64 // pre-start wait, the whole session if it never starts
	playedUs   float64
	rebufferUs float64
	rebuffers  int
}

// NewVideoUser binds a video session to the connection (taking its
// OnStart hook).
func NewVideoUser(conn *transport.Conn, cfg VideoConfig) *VideoUser {
	cfg.validate()
	u := &VideoUser{conn: conn, cfg: cfg}
	conn.OnStart = func() { conn.Schedule(cfg.StartDelayUs, u.begin) }
	return u
}

// begin opens the session and requests the first chunk.
func (u *VideoUser) begin() {
	u.open = true
	u.sessionStartUs = u.conn.NowUs()
	u.lastUs = u.sessionStartUs
	u.requestChunk()
}

// requestChunk downloads one chunk; its completion credits the buffer.
func (u *VideoUser) requestChunk() {
	u.conn.Send(u.cfg.ChunkBytes, u.chunkDone)
}

// advance plays the buffer forward to now, splitting the elapsed time
// into played, stalled, and pre-start waiting.
func (u *VideoUser) advance(nowUs float64) {
	dt := nowUs - u.lastUs
	u.lastUs = nowUs
	if !u.open || dt <= 0 {
		return
	}
	if !u.playing {
		if u.started {
			u.rebufferUs += dt
		} else {
			u.waitUs += dt
		}
		return
	}
	if play := math.Min(u.bufferUs, dt); play > 0 {
		u.playedUs += play
		u.bufferUs -= play
		dt -= play
	}
	if dt > 0 {
		// The buffer ran dry mid-interval: the remainder is a stall.
		u.playing = false
		u.rebuffers++
		u.rebufferUs += dt
	}
}

// creditChunk folds one arrived chunk into the buffer: advance the
// drain, credit the playback time, start (or resume) playback once the
// startup depth is met. It returns how long the next request must wait
// for buffer room (0 = request immediately), keeping the pacing
// decision testable without a connection.
func (u *VideoUser) creditChunk(nowUs float64) float64 {
	u.advance(nowUs)
	u.bufferUs += u.cfg.ChunkUs
	if !u.playing && u.bufferUs >= float64(u.cfg.StartupChunks)*u.cfg.ChunkUs {
		u.playing = true
		if !u.started {
			u.started = true
			u.startupUs = nowUs - u.sessionStartUs
		}
	}
	if excess := u.bufferUs + u.cfg.ChunkUs - u.cfg.BufferMaxUs; excess > 0 && u.playing {
		return excess
	}
	return 0
}

// chunkDone paces the next request from creditChunk's verdict: a full
// buffer waits for the excess to play out (advance runs again at the
// timer, keeping the analytic drain exact), otherwise request now.
func (u *VideoUser) chunkDone(nowUs float64) {
	if wait := u.creditChunk(nowUs); wait > 0 {
		u.conn.Schedule(wait, func() {
			u.advance(u.conn.NowUs())
			u.requestChunk()
		})
		return
	}
	u.requestChunk()
}

// QoE settles the buffer to the current clock and reports the session.
func (u *VideoUser) QoE() netsim.UserQoE {
	u.advance(u.conn.NowUs())
	q := netsim.UserQoE{Kind: netsim.QoEVideo,
		StartupUs: u.startupUs, PlayedUs: u.playedUs,
		RebufferUs: u.rebufferUs, Rebuffers: u.rebuffers}
	if !u.started {
		// Never reached the startup depth: the whole session was one
		// long wait.
		q.StartupUs = u.waitUs
		q.RebufferUs += u.waitUs
	}
	return q
}

// VoiceConfig parameterizes one voice call's scoring. The media stream
// itself is an ordinary open-loop CBR flow — voice is inelastic and
// rides UDP, not the closed loop — with the VoiceUser attached as a
// pure fate observer.
type VoiceConfig struct {
	// CodecDelayMs is the fixed mouth-to-ear component added to the
	// measured network delay: codec framing, packetization, jitter
	// buffer. Default 25 ms when zero.
	CodecDelayMs float64
}

// VoiceUser observes a CBR flow's fates and scores the call with the
// ITU-T G.107 E-model (simplified to its delay and packet-loss
// impairments, G.711 robustness): R = 93.2 - Id(delay) - Ie,eff(loss),
// mapped to a 1..4.5 mean-opinion score.
type VoiceUser struct {
	cfg        VoiceConfig
	delivered  int
	lost       int
	delaySumUs float64
}

// NewVoiceUser attaches the observer to the flow (which keeps its own
// generator — typically CBR at a codec's packet rate).
func NewVoiceUser(f *netsim.Flow, cfg VoiceConfig) *VoiceUser {
	if cfg.CodecDelayMs == 0 {
		cfg.CodecDelayMs = 25
	}
	checkPositive("VoiceConfig", "CodecDelayMs", cfg.CodecDelayMs)
	u := &VoiceUser{cfg: cfg}
	f.SetControl(u)
	return u
}

// Start is the netsim.Control hook; a pure observer has nothing to arm.
func (u *VoiceUser) Start() {}

// PacketFate tallies the call's delivery record.
func (u *VoiceUser) PacketFate(fate netsim.PacketFate, bytes int, elapsedUs float64) {
	if fate == netsim.FateDelivered {
		u.delivered++
		u.delaySumUs += elapsedUs
	} else {
		u.lost++
	}
}

// MOS computes the call's E-model score from the observed loss rate
// and mean one-way delay. A call that delivered nothing scores 1.
func (u *VoiceUser) MOS() float64 {
	if u.delivered == 0 {
		return 1
	}
	lossPct := 100 * float64(u.lost) / float64(u.lost+u.delivered)
	delayMs := u.cfg.CodecDelayMs + u.delaySumUs/float64(u.delivered)/1e3
	// Delay impairment Id: the standard piecewise fit — linear to
	// 177.3 ms, then steep.
	id := 0.024 * delayMs
	if delayMs > 177.3 {
		id += 0.11 * (delayMs - 177.3)
	}
	// Effective equipment impairment for G.711 (Ie = 0, Bpl = 25.1)
	// under random loss.
	ieEff := 95 * lossPct / (lossPct + 25.1)
	r := 93.2 - id - ieEff
	return mosFromR(r)
}

// mosFromR is the G.107 R-factor → MOS mapping.
func mosFromR(r float64) float64 {
	if r <= 0 {
		return 1
	}
	if r > 100 {
		r = 100
	}
	return 1 + 0.035*r + 7e-6*r*(r-60)*(100-r)
}

// QoE reports the call score (register via Network.AddQoE).
func (u *VoiceUser) QoE() netsim.UserQoE {
	return netsim.UserQoE{Kind: netsim.QoEVoice, MOS: u.MOS()}
}
