package spread

// The 802.11 FHSS PHY hops across 79 one-MHz channels (North American
// plan) on a pseudo-random schedule; co-located networks use rotated
// copies of a base permutation so they rarely collide. The paper treats
// FHSS only as the 1997 alternative to DSSS, so this model captures the
// scheduling and collision behaviour rather than the GFSK waveform.

// FHSSChannels is the number of hop channels in the North American plan.
const FHSSChannels = 79

// basePermutation is a fixed pseudo-random permutation of the channel
// set (deterministic Fisher-Yates), mimicking the standard's
// table-driven sequences. A pseudo-random base matters: an affine walk
// would make the channel offset between two phase-shifted networks
// constant over time, so they would either always or never collide
// instead of colliding sporadically as real hop sets do.
func basePermutation() []int {
	out := make([]int, FHSSChannels)
	for i := range out {
		out[i] = i
	}
	state := uint64(0x853C49E6748FEA9B)
	for i := FHSSChannels - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int((state >> 33) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// hopSource abstracts the random draws CoexistenceThroughput needs, so
// the simulation stays in this package without importing rng (which
// would create an import cycle through the tests' helpers).
type hopSource interface {
	Intn(n int) int
}

// CoexistenceThroughput simulates nNetworks co-located, unsynchronized
// FHSS networks over nDwells dwell periods: each network picks a random
// sequence-set index and a random phase, and a dwell succeeds only when
// no other network occupies the same channel. The returned per-network
// success fractions demonstrate the FCC's design goal: spread spectrum
// degrades gracefully and fairly as the band fills, instead of letting
// one network capture it.
func CoexistenceThroughput(nNetworks, nDwells int, src hopSource) []float64 {
	if nNetworks < 1 {
		return nil
	}
	idx := make([]int, nNetworks)
	phase := make([]int, nNetworks)
	for i := range idx {
		idx[i] = src.Intn(FHSSChannels)
		phase[i] = src.Intn(FHSSChannels)
	}
	base := basePermutation()
	success := make([]int, nNetworks)
	occupancy := make([]int, FHSSChannels)
	channels := make([]int, nNetworks)
	for t := 0; t < nDwells; t++ {
		for i := range channels {
			ch := (base[(t+phase[i])%FHSSChannels] + idx[i]) % FHSSChannels
			channels[i] = ch
			occupancy[ch]++
		}
		for i, ch := range channels {
			if occupancy[ch] == 1 {
				success[i]++
			}
		}
		for _, ch := range channels {
			occupancy[ch] = 0
		}
	}
	out := make([]float64, nNetworks)
	for i, s := range success {
		out[i] = float64(s) / float64(nDwells)
	}
	return out
}
