package netsim

import "repro/internal/mathx"

// Application-level quality-of-experience accounting. App models
// (internal/netsim/app) register one UserQoE source per user via
// Network.AddQoE; collect pools them into Result.QoE, and MergeQoE
// pools a seed sweep. QoE keeps the raw per-event samples, so
// cross-seed percentiles are exact rather than max-bounded.

// UserQoE Kind values.
const (
	QoEWeb   = "web"
	QoEVideo = "video"
	QoEVoice = "voice"
)

// UserQoE is one user's application-level experience over a run, in
// the vocabulary of its Kind; fields for other kinds stay zero.
type UserQoE struct {
	Kind string // QoEWeb | QoEVideo | QoEVoice

	// Web: one sample per completed page load, request sent to last
	// byte rendered.
	PageLoadUs []float64

	// Video: time from session start to first frame, total watch time
	// played, total time frozen waiting on the buffer, and how many
	// distinct stalls occurred. A session that never started playing
	// has PlayedUs 0 and its whole wait in RebufferUs.
	StartupUs  float64
	PlayedUs   float64
	RebufferUs float64
	Rebuffers  int

	// Voice: the call's E-model mean-opinion score, 1 (unusable) to
	// ~4.4 (toll quality).
	MOS float64
}

// QoEStats pools the registered users' experience for one Result (or,
// via MergeQoE, a whole seed sweep). The raw sample slices are kept so
// pooled percentiles stay exact across merges.
type QoEStats struct {
	Users int

	WebUsers       int
	PageLoads      int
	PageLoadUs     []float64 // raw page-load samples across users
	MeanPageLoadUs float64
	P95PageLoadUs  float64

	VideoUsers    int
	StartupUs     []float64 // raw startup-delay samples, one per session
	MeanStartupUs float64
	PlayedUs      float64
	RebufferUs    float64
	Rebuffers     int
	// RebufferRatio is frozen time over total session time,
	// RebufferUs / (PlayedUs + RebufferUs) — pooled across users, so
	// long sessions weigh in proportionally.
	RebufferRatio float64

	VoiceUsers int
	MOS        []float64 // one score per call
	MeanMOS    float64
	MinMOS     float64
}

// add folds one user into the raw accumulators.
func (q *QoEStats) add(u UserQoE) {
	q.Users++
	switch u.Kind {
	case QoEWeb:
		q.WebUsers++
		q.PageLoads += len(u.PageLoadUs)
		q.PageLoadUs = append(q.PageLoadUs, u.PageLoadUs...)
	case QoEVideo:
		q.VideoUsers++
		q.StartupUs = append(q.StartupUs, u.StartupUs)
		q.PlayedUs += u.PlayedUs
		q.RebufferUs += u.RebufferUs
		q.Rebuffers += u.Rebuffers
	case QoEVoice:
		q.VoiceUsers++
		q.MOS = append(q.MOS, u.MOS)
	}
}

// finalize recomputes the summary fields from the raw accumulators.
func (q *QoEStats) finalize() {
	if len(q.PageLoadUs) > 0 {
		q.MeanPageLoadUs = mathx.Mean(q.PageLoadUs)
		q.P95PageLoadUs = mathx.Percentile(q.PageLoadUs, 95)
	}
	if len(q.StartupUs) > 0 {
		q.MeanStartupUs = mathx.Mean(q.StartupUs)
	}
	if tot := q.PlayedUs + q.RebufferUs; tot > 0 {
		q.RebufferRatio = q.RebufferUs / tot
	}
	if len(q.MOS) > 0 {
		q.MeanMOS = mathx.Mean(q.MOS)
		q.MinMOS, _ = mathx.MinMax(q.MOS)
	}
}

// AddQoE registers one user's QoE source. fn is called once, after the
// run ends, from collect — it must report the user's final experience.
// Call before Prepare/Run.
func (n *Network) AddQoE(fn func() UserQoE) {
	if n.prepared {
		panic("netsim: AddQoE must be called before Prepare")
	}
	n.qoeSources = append(n.qoeSources, fn)
}

// MergeQoE pools the QoE blocks of several results (a seed sweep) into
// one: counters sum, raw samples concatenate, and the summary
// percentiles are recomputed over the pooled samples, so they are
// exact. Results without QoE are skipped; nil when none carry any.
func MergeQoE(results []Result) *QoEStats {
	var out *QoEStats
	for _, r := range results {
		if r.QoE == nil {
			continue
		}
		if out == nil {
			out = &QoEStats{}
		}
		s := r.QoE
		out.Users += s.Users
		out.WebUsers += s.WebUsers
		out.PageLoads += s.PageLoads
		out.PageLoadUs = append(out.PageLoadUs, s.PageLoadUs...)
		out.VideoUsers += s.VideoUsers
		out.StartupUs = append(out.StartupUs, s.StartupUs...)
		out.PlayedUs += s.PlayedUs
		out.RebufferUs += s.RebufferUs
		out.Rebuffers += s.Rebuffers
		out.VoiceUsers += s.VoiceUsers
		out.MOS = append(out.MOS, s.MOS...)
	}
	if out != nil {
		out.finalize()
	}
	return out
}
