// Package scenario loads netsim deployments from JSON files: explicit
// topology (APs, stations, optional mobility), per-flow traffic
// generators, and the closed-loop layers — transport parameters and
// application users from internal/netsim/app — so a deployment can be
// described in a checked-in config instead of Go code. Parse validates
// eagerly: every error names the offending parameter by its JSON path
// (scenario: flows[2].traffic.payload_bytes: ...), and building only
// starts once the whole file is consistent.
//
// The JSON surface mirrors the Go builders one to one, so a config file
// round-trips: Marshal(Parse(x)) re-encodes to the same scenario.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/linkmodel"
	"repro/internal/netsim"
	"repro/internal/netsim/app"
	"repro/internal/netsim/transport"
)

// File is one complete scenario description.
type File struct {
	// Name labels tables and seed-sweep jobs.
	Name string `json:"name"`

	// DurationS is the virtual time per run in seconds.
	DurationS float64 `json:"duration_s"`

	// Seeds is the Monte-Carlo fan-out (default 1).
	Seeds int `json:"seeds,omitempty"`

	// Config holds optional netsim.Config overrides; absent fields keep
	// the defaults.
	Config *Overrides `json:"config,omitempty"`

	APs      []AP      `json:"aps"`
	Stations []Station `json:"stations"`
	Flows    []Flow    `json:"flows"`
}

// Overrides is the subset of netsim.Config a file, or cmd/netsim's
// MAC/PHY flags, may change. Pointer fields distinguish "absent" from
// an explicit zero.
type Overrides struct {
	CSThresholdDBm    *float64 `json:"cs_threshold_dbm,omitempty"`
	QueueLimit        *int     `json:"queue_limit,omitempty"`
	RtsThresholdBytes *int     `json:"rts_threshold_bytes,omitempty"`
	Shards            *int     `json:"shards,omitempty"`
	RoamIntervalUs    *float64 `json:"roam_interval_us,omitempty"`
	AmpduFrames       *int     `json:"ampdu_frames,omitempty"`
	Edca              bool     `json:"edca,omitempty"`
	Txop              bool     `json:"txop,omitempty"`

	// RateControl selects the per-link rate controller ("fixed" | "arf"
	// | "minstrel"); absent means fixed.
	RateControl *string `json:"rate_control,omitempty"`
	// HtStreams switches the rate table to the 802.11n HT ladder
	// (linkmodel.HtModes) with this many spatial streams, at
	// channel_width_mhz (default 20).
	HtStreams *int `json:"ht_streams,omitempty"`
	// ChannelWidthMHz is the operating width: 20 keeps single-channel
	// operation, 40 bonds {channel, channel+1} with partial-overlap
	// interference between neighboring spans.
	ChannelWidthMHz *int `json:"channel_width_mhz,omitempty"`
	// Channels bounds the band: every AP channel must lie in
	// [1, channels], and with channel_width_mhz 40 the bonded secondary
	// channel+1 must fit too. Absent leaves channels unchecked.
	Channels *int `json:"channels,omitempty"`
	// ObssPdThresholdDBm enables OBSS-PD spatial reuse with BSS
	// coloring: negative dBm, strictly above the carrier-sense
	// threshold. Absent or 0 keeps the mechanism off.
	ObssPdThresholdDBm *float64 `json:"obss_pd_threshold_dbm,omitempty"`
}

// AP places one BSS's access point.
type AP struct {
	Name    string  `json:"name"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Channel int     `json:"channel"`
}

// Station places one station, associated by AP name, with optional
// mobility: either a constant velocity (the roaming-walk model) or a
// random-waypoint walk. Both need config.roam_interval_us to set the
// mobility tick.
type Station struct {
	Name string  `json:"name"`
	AP   string  `json:"ap"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`

	Velocity *Velocity `json:"velocity,omitempty"`
	Waypoint *Waypoint `json:"waypoint,omitempty"`
}

// Velocity is a constant straight-line drift in metres/second.
type Velocity struct {
	VxMps float64 `json:"vx_mps"`
	VyMps float64 `json:"vy_mps"`
}

// Waypoint mirrors netsim.RandomWaypoint.
type Waypoint struct {
	MinX        float64 `json:"min_x"`
	MinY        float64 `json:"min_y"`
	MaxX        float64 `json:"max_x"`
	MaxY        float64 `json:"max_y"`
	SpeedMinMps float64 `json:"speed_min_mps"`
	SpeedMaxMps float64 `json:"speed_max_mps"`
	PauseUs     float64 `json:"pause_us"`
}

// Flow is one traffic stream. From/To name an AP or station; an empty
// To on a station-sourced flow means uplink to its AP. AC is the
// 802.11e access category name ("AC_BK" | "AC_BE" | "AC_VI" | "AC_VO",
// default AC_BE). Transport puts a closed-loop connection on the flow
// (traffic must then be "pull"), and App drives the connection with an
// application model.
type Flow struct {
	From    string  `json:"from"`
	To      string  `json:"to,omitempty"`
	AC      string  `json:"ac,omitempty"`
	Traffic Traffic `json:"traffic"`

	Transport *Transport `json:"transport,omitempty"`
	App       *App       `json:"app,omitempty"`
}

// Traffic selects the open-loop generator ("saturated" | "cbr" |
// "poisson" | "pull") and its parameters.
type Traffic struct {
	Type         string  `json:"type"`
	PayloadBytes int     `json:"payload_bytes,omitempty"`
	IntervalUs   float64 `json:"interval_us,omitempty"`
	PktPerSec    float64 `json:"pkt_per_sec,omitempty"`
	SegmentBytes int     `json:"segment_bytes,omitempty"`
}

// Transport mirrors transport.Config; zero fields keep its defaults.
type Transport struct {
	SegmentBytes int     `json:"segment_bytes,omitempty"`
	InitCwnd     int     `json:"init_cwnd,omitempty"`
	MaxCwnd      int     `json:"max_cwnd,omitempty"`
	InitRTOUs    float64 `json:"init_rto_us,omitempty"`
	MinRTOUs     float64 `json:"min_rto_us,omitempty"`
	MaxRTOUs     float64 `json:"max_rto_us,omitempty"`
}

func (tr *Transport) config() transport.Config {
	return transport.Config{
		SegmentBytes: tr.SegmentBytes,
		InitCwnd:     tr.InitCwnd, MaxCwnd: tr.MaxCwnd,
		InitRTOUs: tr.InitRTOUs, MinRTOUs: tr.MinRTOUs, MaxRTOUs: tr.MaxRTOUs,
	}
}

// App selects the application model ("web" | "video" | "voice") and
// its parameters. Web and video ride the flow's transport connection
// (one is attached with defaults if the flow names none); voice is a
// pure fate observer on an open-loop flow.
type App struct {
	Type string `json:"type"`

	// web
	PageBytes   int     `json:"page_bytes,omitempty"`
	ThinkMeanUs float64 `json:"think_mean_us,omitempty"`

	// video
	ChunkBytes    int     `json:"chunk_bytes,omitempty"`
	ChunkUs       float64 `json:"chunk_us,omitempty"`
	StartupChunks int     `json:"startup_chunks,omitempty"`
	BufferMaxUs   float64 `json:"buffer_max_us,omitempty"`

	// web and video
	StartDelayUs float64 `json:"start_delay_us,omitempty"`

	// voice
	CodecDelayMs float64 `json:"codec_delay_ms,omitempty"`
}

// Load reads and parses path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Parse decodes and validates a scenario. Unknown JSON fields are
// errors — a typoed parameter must not silently fall back to a default.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// errf builds the named-parameter error form every check uses.
func errf(path, format string, args ...any) error {
	return fmt.Errorf("scenario: %s: %s", path, fmt.Sprintf(format, args...))
}

func positive(path string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return errf(path, "must be positive and finite, got %v", v)
	}
	return nil
}

func nonNegative(path string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return errf(path, "must be non-negative and finite, got %v", v)
	}
	return nil
}

// parseAC maps the JSON access-category name; "" defaults to AC_BE.
func parseAC(name string) (netsim.AC, error) {
	switch name {
	case "", "AC_BE":
		return netsim.AC_BE, nil
	case "AC_BK":
		return netsim.AC_BK, nil
	case "AC_VI":
		return netsim.AC_VI, nil
	case "AC_VO":
		return netsim.AC_VO, nil
	}
	return 0, fmt.Errorf("unknown access category %q (want AC_BK | AC_BE | AC_VI | AC_VO)", name)
}

// Validate checks the whole file and reports the first inconsistency
// with its JSON path.
func (f *File) Validate() error {
	if err := positive("duration_s", f.DurationS); err != nil {
		return err
	}
	if f.Seeds < 0 {
		return errf("seeds", "must not be negative, got %d", f.Seeds)
	}
	if err := f.Config.Validate(); err != nil {
		return err
	}
	if len(f.APs) == 0 {
		return errf("aps", "at least one AP is required")
	}
	nodes := map[string]string{} // name -> "aps[i]" / "stations[i]"
	apIndex := map[string]bool{}
	for i, ap := range f.APs {
		path := fmt.Sprintf("aps[%d]", i)
		if ap.Name == "" {
			return errf(path+".name", "must not be empty")
		}
		if prev, dup := nodes[ap.Name]; dup {
			return errf(path+".name", "%q already used by %s", ap.Name, prev)
		}
		nodes[ap.Name] = path
		apIndex[ap.Name] = true
		if ap.Channel < 1 {
			return errf(path+".channel", "must be a positive channel number, got %d", ap.Channel)
		}
		if c := f.Config; c != nil && c.Channels != nil {
			if ap.Channel > *c.Channels {
				return errf(path+".channel", "channel %d outside the band [1, %d] set by config.channels", ap.Channel, *c.Channels)
			}
			if c.ChannelWidthMHz != nil && *c.ChannelWidthMHz == 40 && ap.Channel+1 > *c.Channels {
				return errf(path+".channel", "40 MHz span {%d, %d} exceeds config.channels = %d — the bonded secondary slot falls outside the band",
					ap.Channel, ap.Channel+1, *c.Channels)
			}
		}
	}
	apOf := map[string]string{} // station name -> its AP's name
	mobilityTick := f.Config != nil && f.Config.RoamIntervalUs != nil && *f.Config.RoamIntervalUs > 0
	for i, st := range f.Stations {
		path := fmt.Sprintf("stations[%d]", i)
		if st.Name == "" {
			return errf(path+".name", "must not be empty")
		}
		if prev, dup := nodes[st.Name]; dup {
			return errf(path+".name", "%q already used by %s", st.Name, prev)
		}
		nodes[st.Name] = path
		apOf[st.Name] = st.AP
		if !apIndex[st.AP] {
			return errf(path+".ap", "unknown AP %q", st.AP)
		}
		if st.Velocity != nil && st.Waypoint != nil {
			return errf(path, "velocity and waypoint are mutually exclusive")
		}
		if (st.Velocity != nil || st.Waypoint != nil) && !mobilityTick {
			return errf(path, "mobility needs config.roam_interval_us > 0 to set the tick")
		}
		if w := st.Waypoint; w != nil {
			wp := path + ".waypoint"
			if !(w.MaxX > w.MinX) || !(w.MaxY > w.MinY) {
				return errf(wp, "area must have positive extent, got [%v,%v]x[%v,%v]", w.MinX, w.MaxX, w.MinY, w.MaxY)
			}
			if err := positive(wp+".speed_min_mps", w.SpeedMinMps); err != nil {
				return err
			}
			if w.SpeedMaxMps < w.SpeedMinMps {
				return errf(wp+".speed_max_mps", "must be at least speed_min_mps, got %v < %v", w.SpeedMaxMps, w.SpeedMinMps)
			}
			if err := nonNegative(wp+".pause_us", w.PauseUs); err != nil {
				return err
			}
		}
	}
	if len(f.Flows) == 0 {
		return errf("flows", "at least one flow is required")
	}
	for i, fl := range f.Flows {
		path := fmt.Sprintf("flows[%d]", i)
		if _, known := nodes[fl.From]; !known {
			return errf(path+".from", "unknown node %q", fl.From)
		}
		if fl.To != "" {
			if _, known := nodes[fl.To]; !known {
				return errf(path+".to", "unknown node %q", fl.To)
			}
		}
		if apIndex[fl.From] && fl.To == "" {
			return errf(path+".to", "an AP-sourced (downlink) flow needs an explicit station")
		}
		if fl.To != "" && apIndex[fl.To] {
			return errf(path+".to", "%q is an AP; flows terminate at stations (their AP relays)", fl.To)
		}
		if fl.To == fl.From {
			return errf(path+".to", "%q is the flow's own source", fl.To)
		}
		if apIndex[fl.From] && apOf[fl.To] != fl.From {
			return errf(path+".to", "%q is associated with %s; a downlink flow starts at the station's own AP", fl.To, apOf[fl.To])
		}
		if _, err := parseAC(fl.AC); err != nil {
			return errf(path+".ac", "%v", err)
		}
		if err := fl.Traffic.validate(path + ".traffic"); err != nil {
			return err
		}
		pull := fl.Traffic.Type == "pull"
		closedApp := fl.App != nil && (fl.App.Type == "web" || fl.App.Type == "video")
		if fl.Transport != nil || closedApp {
			if !pull {
				return errf(path+".traffic.type", "transport and web/video apps need the closed-loop %q generator, got %q", "pull", fl.Traffic.Type)
			}
		}
		if pull && fl.Transport == nil && !closedApp {
			return errf(path+".traffic.type", "a %q flow injects nothing without a transport or a web/video app driving it", "pull")
		}
		if tr := fl.Transport; tr != nil {
			tp := path + ".transport"
			for _, c := range []struct {
				name string
				v    float64
			}{
				{"segment_bytes", float64(tr.SegmentBytes)},
				{"init_cwnd", float64(tr.InitCwnd)}, {"max_cwnd", float64(tr.MaxCwnd)},
				{"init_rto_us", tr.InitRTOUs}, {"min_rto_us", tr.MinRTOUs}, {"max_rto_us", tr.MaxRTOUs},
			} {
				if c.v != 0 {
					if err := positive(tp+"."+c.name, c.v); err != nil {
						return err
					}
				}
			}
			// Absent fields take the transport defaults, so compare
			// the defaulted pairs.
			tc := tr.config().WithDefaults()
			if tc.InitCwnd > tc.MaxCwnd {
				return errf(tp+".init_cwnd", "must not exceed max_cwnd, got %v > %v", tc.InitCwnd, tc.MaxCwnd)
			}
			if tc.MinRTOUs > tc.MaxRTOUs {
				return errf(tp+".min_rto_us", "must not exceed max_rto_us, got %v > %v", tc.MinRTOUs, tc.MaxRTOUs)
			}
		}
		if a := fl.App; a != nil {
			if err := a.validate(path + ".app"); err != nil {
				return err
			}
			if a.Type == "voice" && fl.Transport != nil {
				return errf(path+".app.type", "voice observes an open-loop flow; it cannot share the flow with a transport")
			}
		}
	}
	return nil
}

func (tr Traffic) validate(path string) error {
	switch tr.Type {
	case "saturated":
		return positive(path+".payload_bytes", float64(tr.PayloadBytes))
	case "cbr":
		if err := positive(path+".payload_bytes", float64(tr.PayloadBytes)); err != nil {
			return err
		}
		return positive(path+".interval_us", tr.IntervalUs)
	case "poisson":
		if err := positive(path+".payload_bytes", float64(tr.PayloadBytes)); err != nil {
			return err
		}
		return positive(path+".pkt_per_sec", tr.PktPerSec)
	case "pull":
		return positive(path+".segment_bytes", float64(tr.SegmentBytes))
	case "":
		return errf(path+".type", "is required (saturated | cbr | poisson | pull)")
	}
	return errf(path+".type", "unknown generator %q (want saturated | cbr | poisson | pull)", tr.Type)
}

func (a App) validate(path string) error {
	switch a.Type {
	case "web":
		if err := positive(path+".page_bytes", float64(a.PageBytes)); err != nil {
			return err
		}
		if err := positive(path+".think_mean_us", a.ThinkMeanUs); err != nil {
			return err
		}
		return nonNegative(path+".start_delay_us", a.StartDelayUs)
	case "video":
		if err := positive(path+".chunk_bytes", float64(a.ChunkBytes)); err != nil {
			return err
		}
		if err := positive(path+".chunk_us", a.ChunkUs); err != nil {
			return err
		}
		if err := positive(path+".startup_chunks", float64(a.StartupChunks)); err != nil {
			return err
		}
		if err := positive(path+".buffer_max_us", a.BufferMaxUs); err != nil {
			return err
		}
		if a.BufferMaxUs < float64(a.StartupChunks)*a.ChunkUs {
			return errf(path+".buffer_max_us", "%v cannot hold the %d startup chunks", a.BufferMaxUs, a.StartupChunks)
		}
		return nonNegative(path+".start_delay_us", a.StartDelayUs)
	case "voice":
		return nonNegative(path+".codec_delay_ms", a.CodecDelayMs)
	case "":
		return errf(path+".type", "is required (web | video | voice)")
	}
	return errf(path+".type", "unknown app %q (want web | video | voice)", a.Type)
}

// Validate checks the overrides against what netsim.Config.Validate
// would panic on, reporting the first problem under its JSON path
// (config.<key>). A nil receiver is valid: no overrides.
func (c *Overrides) Validate() error {
	if c == nil {
		return nil
	}
	if c.CSThresholdDBm != nil && (math.IsNaN(*c.CSThresholdDBm) || math.IsInf(*c.CSThresholdDBm, 0)) {
		return errf("config.cs_threshold_dbm", "must be a finite dBm figure, got %v", *c.CSThresholdDBm)
	}
	if c.QueueLimit != nil {
		if err := positive("config.queue_limit", float64(*c.QueueLimit)); err != nil {
			return err
		}
	}
	if c.RtsThresholdBytes != nil && *c.RtsThresholdBytes < 0 {
		return errf("config.rts_threshold_bytes", "must not be negative, got %d", *c.RtsThresholdBytes)
	}
	if c.Shards != nil && *c.Shards < 0 {
		return errf("config.shards", "must not be negative, got %d", *c.Shards)
	}
	if c.RoamIntervalUs != nil {
		if err := nonNegative("config.roam_interval_us", *c.RoamIntervalUs); err != nil {
			return err
		}
	}
	if c.AmpduFrames != nil && *c.AmpduFrames < 0 {
		return errf("config.ampdu_frames", "must not be negative, got %d", *c.AmpduFrames)
	}
	if c.Txop && !c.Edca {
		return errf("config.txop", "needs config.edca (legacy DCF runs everything in AC_BE, whose default TXOP limit is 0)")
	}
	if c.RateControl != nil {
		switch *c.RateControl {
		case "fixed", "arf", "minstrel":
		default:
			return errf("config.rate_control", "unknown rate controller %q (want fixed | arf | minstrel)", *c.RateControl)
		}
	}
	if c.ChannelWidthMHz != nil && *c.ChannelWidthMHz != 20 && *c.ChannelWidthMHz != 40 {
		return errf("config.channel_width_mhz", "must be 20 or 40, got %d", *c.ChannelWidthMHz)
	}
	if c.HtStreams != nil && (*c.HtStreams < 1 || *c.HtStreams > 4) {
		return errf("config.ht_streams", "must be 1..4 spatial streams, got %d", *c.HtStreams)
	}
	if c.Channels != nil && *c.Channels < 1 {
		return errf("config.channels", "must be a positive channel count, got %d", *c.Channels)
	}
	if c.ObssPdThresholdDBm != nil && *c.ObssPdThresholdDBm != 0 {
		t := *c.ObssPdThresholdDBm
		if math.IsNaN(t) || math.IsInf(t, 0) || t > 0 {
			return errf("config.obss_pd_threshold_dbm", "must be a negative finite dBm figure (0 disables), got %v", t)
		}
		cs := netsim.DefaultConfig().CSThresholdDBm
		if c.CSThresholdDBm != nil {
			cs = *c.CSThresholdDBm
		}
		if t <= cs {
			return errf("config.obss_pd_threshold_dbm", "must be above the carrier-sense threshold %v dBm (OBSS-PD relaxes deferral, it cannot tighten it), got %v", cs, t)
		}
	}
	return nil
}

// Apply returns cfg with the overrides written over it; absent keys
// keep cfg's values. Call only on validated overrides. An HT rate table
// with aggregation gets the HT PPDU duration cap of netsim.HtConfig.
func (c *Overrides) Apply(cfg netsim.Config) netsim.Config {
	if c == nil {
		return cfg
	}
	if c.CSThresholdDBm != nil {
		cfg.CSThresholdDBm = *c.CSThresholdDBm
	}
	if c.QueueLimit != nil {
		cfg.QueueLimit = *c.QueueLimit
	}
	if c.RtsThresholdBytes != nil {
		cfg.RtsThresholdBytes = *c.RtsThresholdBytes
	}
	if c.Shards != nil {
		cfg.Shards = *c.Shards
	}
	if c.RoamIntervalUs != nil {
		cfg.RoamIntervalUs = *c.RoamIntervalUs
	}
	if c.HtStreams != nil {
		w := 20
		if c.ChannelWidthMHz != nil {
			w = *c.ChannelWidthMHz
		}
		cfg.Modes = linkmodel.HtModes(*c.HtStreams, w)
	}
	if c.ChannelWidthMHz != nil {
		cfg.ChannelWidthMHz = *c.ChannelWidthMHz
	}
	if c.RateControl != nil {
		cfg.RateControl = *c.RateControl
	}
	if c.Channels != nil {
		cfg.Channels = *c.Channels
	}
	if c.ObssPdThresholdDBm != nil {
		cfg.ObssPdThresholdDBm = *c.ObssPdThresholdDBm
	}
	if c.Edca {
		e := netsim.DefaultEdca(cfg.Dcf, cfg.QueueLimit)
		if c.Txop {
			e = e.WithDot11eTxop(cfg.Dcf)
		}
		cfg.Edca = &e
	}
	if c.AmpduFrames != nil && *c.AmpduFrames > 0 {
		a := netsim.DefaultAggregation()
		a.MaxAmpduFrames = *c.AmpduFrames
		if c.HtStreams != nil {
			a.MaxAmpduAirUs = 4000
		}
		cfg.Aggregation = &a
	}
	return cfg
}

func (tr Traffic) gen() netsim.TrafficGen {
	switch tr.Type {
	case "saturated":
		return netsim.Saturated{PayloadBytes: tr.PayloadBytes}
	case "cbr":
		return netsim.CBR{PayloadBytes: tr.PayloadBytes, IntervalUs: tr.IntervalUs}
	case "poisson":
		return netsim.Poisson{PayloadBytes: tr.PayloadBytes, PktPerSec: tr.PktPerSec}
	case "pull":
		return netsim.Pull{SegmentBytes: tr.SegmentBytes}
	}
	panic("scenario: unvalidated traffic type " + tr.Type)
}

// Build compiles the validated file into a seed-parameterized network
// builder, ready for netsim.SeedSweep. Call only after Parse/Validate
// succeeded.
func (f *File) Build() func(seed int64) *netsim.Network {
	cfg := f.Config.Apply(netsim.DefaultConfig())
	return func(seed int64) *netsim.Network {
		n := netsim.New(cfg, seed)
		byName := map[string]*netsim.Node{}
		bssByName := map[string]*netsim.BSS{}
		for _, ap := range f.APs {
			b := n.AddAP(ap.Name, ap.X, ap.Y, ap.Channel)
			byName[ap.Name] = b.AP
			bssByName[ap.Name] = b
		}
		for _, st := range f.Stations {
			nd := n.AddStation(bssByName[st.AP], st.Name, st.X, st.Y)
			byName[st.Name] = nd
			if st.Velocity != nil {
				n.SetVelocity(nd, st.Velocity.VxMps, st.Velocity.VyMps)
			}
			if w := st.Waypoint; w != nil {
				n.SetRandomWaypoint(nd, netsim.RandomWaypoint{
					MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY,
					SpeedMinMps: w.SpeedMinMps, SpeedMaxMps: w.SpeedMaxMps,
					PauseUs: w.PauseUs,
				})
			}
		}
		for _, fl := range f.Flows {
			ac, _ := parseAC(fl.AC)
			spec := netsim.FlowSpec{From: byName[fl.From], AC: ac, Gen: fl.Traffic.gen()}
			if fl.To != "" {
				spec.To = byName[fl.To]
			}
			flow := n.Add(spec)
			var conn *transport.Conn
			if fl.Transport != nil || (fl.App != nil && fl.App.Type != "voice") {
				var tc transport.Config
				if tr := fl.Transport; tr != nil {
					tc = tr.config()
				}
				conn = transport.Attach(flow, tc)
			}
			if a := fl.App; a != nil {
				switch a.Type {
				case "web":
					u := app.NewWebUser(conn, app.WebConfig{
						PageBytes: a.PageBytes, ThinkMeanUs: a.ThinkMeanUs,
						StartDelayUs: a.StartDelayUs,
					}, n.Src().Split())
					n.AddQoE(u.QoE)
				case "video":
					u := app.NewVideoUser(conn, app.VideoConfig{
						ChunkBytes: a.ChunkBytes, ChunkUs: a.ChunkUs,
						StartupChunks: a.StartupChunks, BufferMaxUs: a.BufferMaxUs,
						StartDelayUs: a.StartDelayUs,
					})
					n.AddQoE(u.QoE)
				case "voice":
					u := app.NewVoiceUser(flow, app.VoiceConfig{CodecDelayMs: a.CodecDelayMs})
					n.AddQoE(u.QoE)
				}
			}
		}
		return n
	}
}
