// Package mac models the 802.11 medium access layer: the distributed
// coordination function (CSMA/CA with binary exponential backoff), ARF
// rate adaptation, frame aggregation efficiency, and the beacon-based
// power-save mode whose latency/energy trade the paper's low-power
// section calls for.
package mac

import (
	"math"

	"repro/internal/rng"
)

// DcfConfig holds the timing and contention parameters of one PHY era.
type DcfConfig struct {
	SlotUs     float64
	SIFSUs     float64
	DIFSUs     float64
	CWMin      int // initial contention window (slots - 1)
	CWMax      int
	AckUs      float64 // ACK frame duration
	PlcpUs     float64 // preamble + header overhead per frame
	RetryLimit int
}

// Dot11bDcf returns 802.11b timing (long preamble).
func Dot11bDcf() DcfConfig {
	return DcfConfig{SlotUs: 20, SIFSUs: 10, DIFSUs: 50, CWMin: 31, CWMax: 1023,
		AckUs: 112, PlcpUs: 192, RetryLimit: 7}
}

// Dot11agDcf returns 802.11a/g timing.
func Dot11agDcf() DcfConfig {
	return DcfConfig{SlotUs: 9, SIFSUs: 16, DIFSUs: 34, CWMin: 15, CWMax: 1023,
		AckUs: 44, PlcpUs: 20, RetryLimit: 7}
}

// Station is one contender in the DCF simulation.
type Station struct {
	Name     string
	RateMbps float64 // PHY rate for its frames
	PER      float64 // per-attempt loss probability absent collision
	// Aggregation: frames per TXOP (1 = no aggregation). Aggregated
	// frames share one preamble and one block-ACK.
	Aggregation int

	// runtime state
	backoff   int
	cw        int
	retries   int
	delivered int
	attempts  int
	airtimeUs float64
	// access-delay bookkeeping
	waitingSinceUs float64
	totalDelayUs   float64
}

// DcfResult summarizes a DCF run.
type DcfResult struct {
	DurationUs       float64
	PerStation       []StationResult
	Collisions       int
	TxEvents         int
	TotalGoodputMbps float64
}

// StationResult is the per-station share.
type StationResult struct {
	Name             string
	GoodputMbps      float64
	Delivered        int
	Attempts         int
	AirtimeFraction  float64
	AvgAccessDelayUs float64
}

// frameAirtimeUs is the on-air time of one TXOP for station s.
func frameAirtimeUs(cfg DcfConfig, s *Station, payloadBytes int) float64 {
	agg := s.Aggregation
	if agg < 1 {
		agg = 1
	}
	payloadUs := float64(8*payloadBytes*agg) / s.RateMbps
	return cfg.PlcpUs + payloadUs + cfg.SIFSUs + cfg.AckUs
}

// RunDcf simulates saturated DCF: every station always has a frame
// queued. The model advances in contention slots; when one station's
// backoff expires alone it transmits (success unless its link drops the
// frame), and simultaneous expiries collide. This is the standard
// Bianchi-style slotted simulation.
func RunDcf(cfg DcfConfig, stations []*Station, payloadBytes int, durationUs float64, src *rng.Source) DcfResult {
	if len(stations) == 0 {
		panic("mac: no stations")
	}
	for _, s := range stations {
		s.cw = cfg.CWMin
		s.backoff = src.Intn(s.cw + 1)
		s.retries = 0
		s.delivered, s.attempts = 0, 0
		s.airtimeUs, s.totalDelayUs = 0, 0
		s.waitingSinceUs = 0
	}
	res := DcfResult{}
	now := 0.0
	for now < durationUs {
		// Find the minimum backoff; advance time by that many idle slots.
		minB := math.MaxInt32
		for _, s := range stations {
			if s.backoff < minB {
				minB = s.backoff
			}
		}
		now += float64(minB)*cfg.SlotUs + cfg.DIFSUs
		var ready []*Station
		for _, s := range stations {
			s.backoff -= minB
			if s.backoff == 0 {
				ready = append(ready, s)
			}
		}
		res.TxEvents++
		if len(ready) > 1 {
			// Collision: air is busy for the longest colliding frame.
			res.Collisions++
			longest := 0.0
			for _, s := range ready {
				s.attempts++
				if t := frameAirtimeUs(cfg, s, payloadBytes); t > longest {
					longest = t
				}
				s.failure(cfg, src)
			}
			now += longest
			continue
		}
		s := ready[0]
		s.attempts++
		air := frameAirtimeUs(cfg, s, payloadBytes)
		now += air
		if src.Float64() < s.PER {
			s.failure(cfg, src)
			continue
		}
		agg := s.Aggregation
		if agg < 1 {
			agg = 1
		}
		s.delivered += agg
		s.airtimeUs += air
		s.totalDelayUs += now - s.waitingSinceUs
		s.waitingSinceUs = now
		s.cw = cfg.CWMin
		s.retries = 0
		s.backoff = src.Intn(s.cw + 1)
	}

	res.DurationUs = now
	for _, s := range stations {
		goodput := float64(s.delivered*8*payloadBytes) / now
		sr := StationResult{
			Name:            s.Name,
			GoodputMbps:     goodput,
			Delivered:       s.delivered,
			Attempts:        s.attempts,
			AirtimeFraction: s.airtimeUs / now,
		}
		if s.delivered > 0 {
			sr.AvgAccessDelayUs = s.totalDelayUs / float64(s.delivered)
		}
		res.PerStation = append(res.PerStation, sr)
		res.TotalGoodputMbps += goodput
	}
	return res
}

// failure doubles the contention window and redraws backoff; frames are
// dropped (and the window reset) past the retry limit.
func (s *Station) failure(cfg DcfConfig, src *rng.Source) {
	s.retries++
	if s.retries > cfg.RetryLimit {
		s.retries = 0
		s.cw = cfg.CWMin
	} else {
		s.cw = min(2*s.cw+1, cfg.CWMax)
	}
	s.backoff = src.Intn(s.cw + 1)
}
