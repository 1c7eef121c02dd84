package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/fec"
	"repro/internal/matrix"
	"repro/internal/mimo"
	"repro/internal/modem"
	"repro/internal/ofdm"
)

// HtMcs describes the per-stream modulation and coding of one MCS index
// (MCS 0-7; higher indices repeat the table with more spatial streams).
type HtMcs struct {
	Scheme modem.Scheme
	Rate   fec.CodeRate
}

// htMcsTable lists MCS 0-7.
var htMcsTable = []HtMcs{
	{modem.BPSK, fec.Rate1_2},
	{modem.QPSK, fec.Rate1_2},
	{modem.QPSK, fec.Rate3_4},
	{modem.QAM16, fec.Rate1_2},
	{modem.QAM16, fec.Rate3_4},
	{modem.QAM64, fec.Rate2_3},
	{modem.QAM64, fec.Rate3_4},
	{modem.QAM64, fec.Rate5_6},
}

// HtConfig selects an 802.11n operating point.
type HtConfig struct {
	MCS      int  // 0..31: modulation/coding plus spatial stream count
	Width40  bool // 40 MHz channel (128-FFT) instead of 20 MHz
	ShortGI  bool // 400 ns guard interval
	LDPC     bool // LDPC coding instead of the convolutional code
	NRx      int  // receive antennas; defaults to the stream count
	STBC     bool // Alamouti space-time coding (requires 1 stream, uses 2 TX)
	Beamform bool // closed-loop SVD precoding; requires NTx set and CSI via SetCSI
	NTx      int  // transmit antennas; defaults to streams (2 for STBC)
}

// Ht is the 802.11n MIMO-OFDM PHY.
type Ht struct {
	cfg       HtConfig
	grid      *ofdm.Grid
	mcs       HtMcs
	nss       int
	ntx       int
	nrx       int
	ldpc      *fec.LDPC
	precoders []*matrix.Matrix // per-bin SVD precoders (ntx x nss), beamforming only
}

// NewHt validates the configuration and builds the PHY.
func NewHt(cfg HtConfig) (*Ht, error) {
	if cfg.MCS < 0 || cfg.MCS > 31 {
		return nil, &ModeError{PHY: "802.11n HT", Want: "MCS 0..31"}
	}
	nss := cfg.MCS/8 + 1
	ntx := cfg.NTx
	if ntx == 0 {
		ntx = nss
	}
	if cfg.STBC {
		if nss != 1 {
			return nil, &ModeError{PHY: "802.11n HT", Want: "STBC with a single spatial stream"}
		}
		if cfg.NTx == 0 {
			ntx = 2
		}
		if ntx != 2 {
			return nil, &ModeError{PHY: "802.11n HT", Want: "STBC with 2 transmit antennas"}
		}
	}
	if ntx < nss {
		return nil, &ModeError{PHY: "802.11n HT", Want: "at least as many TX antennas as streams"}
	}
	if cfg.Beamform && cfg.STBC {
		return nil, &ModeError{PHY: "802.11n HT", Want: "beamforming or STBC, not both"}
	}
	if !cfg.Beamform && !cfg.STBC && ntx != nss {
		return nil, &ModeError{PHY: "802.11n HT", Want: "direct mapping needs NTx == streams"}
	}
	nrx := cfg.NRx
	if nrx == 0 {
		nrx = nss
	}
	if nrx < nss {
		return nil, &ModeError{PHY: "802.11n HT", Want: "at least as many RX antennas as streams"}
	}
	grid := ofdm.HT20()
	if cfg.Width40 {
		grid = ofdm.HT40()
	}
	if cfg.ShortGI {
		grid = grid.WithShortGI()
	}
	h := &Ht{cfg: cfg, grid: grid, mcs: htMcsTable[cfg.MCS%8], nss: nss, ntx: ntx, nrx: nrx}
	if cfg.LDPC {
		// Z=54 (1296-bit codewords) balances waterfall steepness against
		// the padding waste on short frames.
		h.ldpc = fec.NewLDPC(h.mcs.Rate, 54)
	}
	return h, nil
}

// Name implements the PHY naming convention.
func (h *Ht) Name() string {
	w := 20
	if h.cfg.Width40 {
		w = 40
	}
	code := "BCC"
	if h.cfg.LDPC {
		code = "LDPC"
	}
	return fmt.Sprintf("802.11n HT MCS%d %dMHz %s %.1f Mbps", h.cfg.MCS, w, code, h.RateMbps())
}

// RateMbps returns the nominal PHY rate: data carriers x bits x code rate
// per symbol duration (4 us, or 3.6 us with the short guard interval).
func (h *Ht) RateMbps() float64 {
	symbolUs := 4.0
	if h.cfg.ShortGI {
		symbolUs = 3.6
	}
	bitsPerSymbol := float64(h.grid.NumData()) * float64(h.mcs.Scheme.BitsPerSymbol()) * h.mcs.Rate.Value() * float64(h.nss)
	return bitsPerSymbol / symbolUs
}

// BandwidthMHz implements the PHY interface.
func (h *Ht) BandwidthMHz() float64 {
	if h.cfg.Width40 {
		return 40
	}
	return 20
}

// NumTx returns the transmit antenna count.
func (h *Ht) NumTx() int { return h.ntx }

// NumRx returns the receive antenna count.
func (h *Ht) NumRx() int { return h.nrx }

// SetCSI provides per-bin channel matrices (NFFT entries of NRx x NTx)
// for closed-loop beamforming; the SVD precoders are computed once here.
// The matrices are the physical channel frequency response; transmit
// scaling is handled internally.
func (h *Ht) SetCSI(perBin []*matrix.Matrix) {
	if !h.cfg.Beamform {
		return
	}
	if len(perBin) != h.grid.NFFT {
		panic("phy: CSI must cover every FFT bin")
	}
	h.precoders = make([]*matrix.Matrix, h.grid.NFFT)
	used := make([]bool, h.grid.NFFT)
	for _, b := range h.grid.Data {
		used[b] = true
	}
	for _, b := range h.grid.Pilots {
		used[b] = true
	}
	for b := range perBin {
		if !used[b] {
			continue
		}
		svd := perBin[b].SVD()
		v := matrix.New(h.ntx, h.nss)
		for a := 0; a < h.ntx; a++ {
			for s := 0; s < h.nss; s++ {
				v.Set(a, s, svd.V.At(a, s))
			}
		}
		h.precoders[b] = v
	}
}

// interleaverCols returns the 802.11n interleaver column count: 13 for
// 20 MHz (52 carriers), 18 for 40 MHz (108 carriers).
func (h *Ht) interleaverCols() int {
	if h.cfg.Width40 {
		return 18
	}
	return 13
}

// ncbpss returns coded bits per OFDM symbol per stream.
func (h *Ht) ncbpss() int { return h.grid.NumData() * h.mcs.Scheme.BitsPerSymbol() }

// padMultiple is the coded-bit granularity of one transmission slot:
// all streams' symbols, doubled under STBC's two-symbol pairs.
func (h *Ht) padMultiple() int {
	m := h.ncbpss() * h.nss
	if h.cfg.STBC {
		m *= 2
	}
	return m
}

// encode produces the coded bit stream, padded to fill whole slots.
func (h *Ht) encode(bits []byte) []byte {
	if h.ldpc != nil {
		k := h.ldpc.K()
		nCw := (len(bits) + k - 1) / k
		padded := append(append([]byte(nil), bits...), make([]byte, nCw*k-len(bits))...)
		coded := make([]byte, 0, nCw*h.ldpc.N())
		for c := 0; c < nCw; c++ {
			coded = append(coded, h.ldpc.Encode(padded[c*k:(c+1)*k])...)
		}
		if rem := len(coded) % h.padMultiple(); rem != 0 {
			coded = append(coded, make([]byte, h.padMultiple()-rem)...)
		}
		return coded
	}
	pad := 0
	for fec.PuncturedLength(len(bits)+pad, h.mcs.Rate)%h.padMultiple() != 0 {
		pad++
	}
	return fec.ConvEncode(append(append([]byte(nil), bits...), make([]byte, pad)...), h.mcs.Rate)
}

// decode inverts encode given deparsed LLRs.
func (h *Ht) decode(llrs []float64) []byte {
	if h.ldpc != nil {
		n := h.ldpc.N()
		nCw := len(llrs) / n
		out := make([]byte, 0, nCw*h.ldpc.K())
		for c := 0; c < nCw; c++ {
			info, _ := h.ldpc.Decode(llrs[c*n:(c+1)*n], 40)
			out = append(out, info...)
		}
		return out
	}
	// Invert PuncturedLength by bisection.
	lo, hi := 0, len(llrs)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fec.PuncturedLength(mid, h.mcs.Rate) <= len(llrs) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0 {
		return nil
	}
	return fec.ViterbiDecode(llrs, h.mcs.Rate, lo)
}

// buildStreamSymbols scrambles, encodes, stream-parses, interleaves and
// maps the payload, returning per-stream constellation symbols.
func (h *Ht) buildStreamSymbols(payload []byte) [][]complex128 {
	bits := fec.Scramble(frameBits(payload), scramblerSeed)
	coded := h.encode(bits)
	// Stream parser: round-robin coded bits across streams.
	perStream := make([][]byte, h.nss)
	for i, b := range coded {
		s := i % h.nss
		perStream[s] = append(perStream[s], b)
	}
	ncbpss := h.ncbpss()
	bps := h.mcs.Scheme.BitsPerSymbol()
	streams := make([][]complex128, h.nss)
	for s := range perStream {
		inter := make([]byte, 0, len(perStream[s]))
		for sym := 0; sym < len(perStream[s])/ncbpss; sym++ {
			inter = append(inter, fec.InterleaveCols(perStream[s][sym*ncbpss:(sym+1)*ncbpss], ncbpss, bps, h.interleaverCols())...)
		}
		streams[s] = h.mcs.Scheme.Modulate(inter)
	}
	return streams
}

// TxFrame modulates the payload into per-antenna sample streams,
// prefixed by one long-training slot per spatial stream (per antenna for
// STBC). Waveforms have unit total mean power across antennas.
func (h *Ht) TxFrame(payload []byte) [][]complex128 {
	streams := h.buildStreamSymbols(payload)
	nd := h.grid.NumData()
	nSym := len(streams[0]) / nd

	powerNorm := complex(1/math.Sqrt(float64(h.nss)), 0)
	if h.cfg.STBC {
		powerNorm = complex(1/math.Sqrt2, 0)
	}

	// Training: all effective channel columns are sounded simultaneously
	// across nLtf slots using an orthogonal +/-1 pattern (the HT-LTF "P
	// matrix"), so every estimate integrates the full training energy.
	nCols := h.trainedColumns()
	nLtf := h.numLTFs()
	pmat := hadamard(nLtf)
	out := make([][]complex128, h.ntx)
	ltf := h.grid.BuildLTFSymbol()
	slotLen := len(ltf)
	total := nLtf*slotLen + nSym*h.grid.SymbolLen()
	for a := range out {
		out[a] = make([]complex128, 0, total)
	}

	for slot := 0; slot < nLtf; slot++ {
		if h.cfg.Beamform {
			segs := h.precodedLTFSlot(pmat, slot, powerNorm)
			for a := 0; a < h.ntx; a++ {
				out[a] = append(out[a], segs[a]...)
			}
			continue
		}
		for a := 0; a < h.ntx; a++ {
			seg := make([]complex128, slotLen)
			if a < nCols {
				sign := complex(pmat[a][slot], 0)
				for i, v := range ltf {
					seg[i] = v * powerNorm * sign
				}
			}
			out[a] = append(out[a], seg...)
		}
	}

	// Data symbols.
	if h.cfg.STBC {
		h.appendSTBCData(out, streams[0], nSym, powerNorm)
		return out
	}
	for sym := 0; sym < nSym; sym++ {
		freqPerStream := make([][]complex128, h.nss)
		for s := range streams {
			data := make([]complex128, nd)
			for i := range data {
				data[i] = streams[s][sym*nd+i] * powerNorm
			}
			freqPerStream[s] = h.grid.PlaceBins(data)
			// Pilots were placed at full amplitude; normalize them too.
			for _, b := range h.grid.Pilots {
				freqPerStream[s][b] *= powerNorm
			}
		}
		antFreq := h.mapStreamsToAntennas(freqPerStream)
		for a := 0; a < h.ntx; a++ {
			out[a] = append(out[a], h.grid.AssembleSymbol(antFreq[a])...)
		}
	}
	return out
}

// trainedColumns returns the number of effective channel columns the
// receiver must estimate: streams normally, antennas under STBC.
func (h *Ht) trainedColumns() int {
	if h.cfg.STBC {
		return h.ntx
	}
	return h.nss
}

// numLTFs rounds the trained column count up to a power of two so an
// orthogonal Hadamard pattern exists (802.11n likewise sends 4 HT-LTFs
// for 3 streams).
func (h *Ht) numLTFs() int {
	n := 1
	for n < h.trainedColumns() {
		n <<= 1
	}
	return n
}

// hadamard returns the n x n +/-1 Hadamard matrix (n a power of two).
func hadamard(n int) [][]float64 {
	m := [][]float64{{1}}
	for len(m) < n {
		k := len(m)
		next := make([][]float64, 2*k)
		for i := range next {
			next[i] = make([]float64, 2*k)
			for j := 0; j < 2*k; j++ {
				v := m[i%k][j%k]
				if i >= k && j >= k {
					v = -v
				}
				next[i][j] = v
			}
		}
		m = next
	}
	return m
}

// precodedLTFSlot builds one training slot for beamforming: every stream
// column sounds simultaneously with its orthogonal sign.
func (h *Ht) precodedLTFSlot(pmat [][]float64, slot int, powerNorm complex128) [][]complex128 {
	if h.precoders == nil {
		panic("phy: beamforming requires SetCSI before TxFrame")
	}
	freq := h.grid.LTFFreq()
	antFreq := make([][]complex128, h.ntx)
	for a := range antFreq {
		antFreq[a] = make([]complex128, h.grid.NFFT)
	}
	for b := 0; b < h.grid.NFFT; b++ {
		if freq[b] == 0 || h.precoders[b] == nil {
			continue
		}
		for a := 0; a < h.ntx; a++ {
			var acc complex128
			for s := 0; s < h.nss; s++ {
				acc += h.precoders[b].At(a, s) * complex(pmat[s][slot], 0)
			}
			antFreq[a][b] = freq[b] * powerNorm * acc
		}
	}
	out := make([][]complex128, h.ntx)
	for a := range out {
		out[a] = h.grid.AssembleSymbol(antFreq[a])
	}
	return out
}

// mapStreamsToAntennas applies direct mapping or per-bin SVD precoding.
func (h *Ht) mapStreamsToAntennas(freqPerStream [][]complex128) [][]complex128 {
	if !h.cfg.Beamform {
		return freqPerStream
	}
	if h.precoders == nil {
		panic("phy: beamforming requires SetCSI before TxFrame")
	}
	antFreq := make([][]complex128, h.ntx)
	for a := range antFreq {
		antFreq[a] = make([]complex128, h.grid.NFFT)
	}
	for b := 0; b < h.grid.NFFT; b++ {
		if h.precoders[b] == nil {
			continue
		}
		for a := 0; a < h.ntx; a++ {
			var acc complex128
			for s := 0; s < h.nss; s++ {
				acc += h.precoders[b].At(a, s) * freqPerStream[s][b]
			}
			antFreq[a][b] = acc
		}
	}
	return antFreq
}

// appendSTBCData Alamouti-codes the single stream across OFDM symbol
// pairs on each carrier.
func (h *Ht) appendSTBCData(out [][]complex128, syms []complex128, nSym int, powerNorm complex128) {
	nd := h.grid.NumData()
	for pair := 0; pair < nSym/2; pair++ {
		a1 := make([]complex128, nd) // antenna 0, first symbol time
		a2 := make([]complex128, nd)
		b1 := make([]complex128, nd)
		b2 := make([]complex128, nd)
		for i := 0; i < nd; i++ {
			s1 := syms[(2*pair)*nd+i] * powerNorm
			s2 := syms[(2*pair+1)*nd+i] * powerNorm
			a1[i], b1[i] = s1, s2
			a2[i], b2[i] = -cmplx.Conj(s2), cmplx.Conj(s1)
		}
		for _, step := range []struct{ ant0, ant1 []complex128 }{{a1, b1}, {a2, b2}} {
			f0 := h.grid.PlaceBins(step.ant0)
			f1 := h.grid.PlaceBins(step.ant1)
			for _, b := range h.grid.Pilots {
				f0[b] *= powerNorm
				f1[b] *= powerNorm
			}
			out[0] = append(out[0], h.grid.AssembleSymbol(f0)...)
			out[1] = append(out[1], h.grid.AssembleSymbol(f1)...)
		}
	}
}

// estimateChannels recovers the per-bin effective channel columns by
// de-spreading the orthogonal training pattern: column c of the channel
// is (1/nLtf) * sum_t P[c][t] * bins_t / L.
func (h *Ht) estimateChannels(rx [][]complex128) []*matrix.Matrix {
	known := h.grid.LTFFreq()
	slotLen := h.grid.SymbolLen()
	nCols := h.trainedColumns()
	nLtf := h.numLTFs()
	pmat := hadamard(nLtf)
	est := make([]*matrix.Matrix, h.grid.NFFT)
	for b := range est {
		est[b] = matrix.New(h.nrx, nCols)
	}
	inv := complex(1/float64(nLtf), 0)
	for j := 0; j < h.nrx; j++ {
		binsPerSlot := make([][]complex128, nLtf)
		for t := 0; t < nLtf; t++ {
			binsPerSlot[t] = h.grid.RawBins(rx[j][t*slotLen:])
		}
		for b := 0; b < h.grid.NFFT; b++ {
			if known[b] == 0 {
				continue
			}
			for c := 0; c < nCols; c++ {
				var acc complex128
				for t := 0; t < nLtf; t++ {
					acc += binsPerSlot[t][b] * complex(pmat[c][t], 0)
				}
				est[b].Set(j, c, acc*inv/known[b])
			}
		}
	}
	return est
}

// RxFrame demodulates per-antenna received streams.
func (h *Ht) RxFrame(rx [][]complex128, noiseVar float64) ([]byte, bool) {
	if len(rx) != h.nrx {
		return nil, false
	}
	nLtf := h.numLTFs()
	slotLen := h.grid.SymbolLen()
	minLen := nLtf*slotLen + h.grid.SymbolLen()
	for _, r := range rx {
		if len(r) < minLen {
			return nil, false
		}
	}
	chans := h.estimateChannels(rx)
	dataStart := nLtf * slotLen
	nSym := (len(rx[0]) - dataStart) / slotLen

	var llrsPerStream [][]float64
	if h.cfg.STBC {
		llrsPerStream = h.rxSTBC(rx, chans, dataStart, nSym, noiseVar)
	} else {
		llrsPerStream = h.rxSpatial(rx, chans, dataStart, nSym, noiseVar)
	}
	if llrsPerStream == nil {
		return nil, false
	}

	// Stream deparser: reassemble the round-robin order.
	perLen := len(llrsPerStream[0])
	llrs := make([]float64, perLen*h.nss)
	for s := 0; s < h.nss; s++ {
		for p := 0; p < perLen; p++ {
			llrs[p*h.nss+s] = llrsPerStream[s][p]
		}
	}
	bits := h.decode(llrs)
	if bits == nil {
		return nil, false
	}
	bits = fec.Descramble(bits, scramblerSeed)
	return bitsToFrame(bits)
}

// rxSpatial performs per-bin MMSE detection with bias correction and
// produces per-stream deinterleaved LLRs.
func (h *Ht) rxSpatial(rx [][]complex128, chans []*matrix.Matrix, dataStart, nSym int, noiseVar float64) [][]float64 {
	nd := h.grid.NumData()
	bps := h.mcs.Scheme.BitsPerSymbol()
	ncbpss := h.ncbpss()
	slotLen := h.grid.SymbolLen()

	// Precompute per-bin detectors.
	type binDet struct {
		w        *matrix.Matrix
		bias     []complex128 // w_i . h_i per stream
		noiseAmp []float64    // ||w_i||^2 / |bias|^2 per stream
	}
	dets := make([]*binDet, h.grid.NFFT)
	const es = 1.0 // per-stream symbol power as seen through the estimated channel
	for _, b := range h.grid.Data {
		hk := chans[b]
		det, err := mimo.NewMMSE(hk, noiseVar, es)
		if err != nil {
			return nil
		}
		bd := &binDet{w: det.Matrix(), bias: make([]complex128, h.nss), noiseAmp: make([]float64, h.nss)}
		for s := 0; s < h.nss; s++ {
			var dot complex128
			var norm float64
			for j := 0; j < h.nrx; j++ {
				w := bd.w.At(s, j)
				dot += w * hk.At(j, s)
				norm += real(w)*real(w) + imag(w)*imag(w)
			}
			if cmplx.Abs(dot) < 1e-12 {
				return nil
			}
			bd.bias[s] = dot
			bd.noiseAmp[s] = norm / (real(dot)*real(dot) + imag(dot)*imag(dot))
		}
		dets[b] = bd
	}

	out := make([][]float64, h.nss)
	y := make([]complex128, h.nrx)
	for sym := 0; sym < nSym; sym++ {
		binsPerRx := make([][]complex128, h.nrx)
		for j := 0; j < h.nrx; j++ {
			binsPerRx[j] = h.grid.RawBins(rx[j][dataStart+sym*slotLen:])
		}
		symLLRs := make([][]float64, h.nss)
		for s := range symLLRs {
			symLLRs[s] = make([]float64, 0, ncbpss)
		}
		for i := 0; i < nd; i++ {
			b := h.grid.Data[i]
			bd := dets[b]
			for j := 0; j < h.nrx; j++ {
				y[j] = binsPerRx[j][b]
			}
			x := bd.w.MulVec(y)
			for s := 0; s < h.nss; s++ {
				est := x[s] / bd.bias[s]
				nv := noiseVar * bd.noiseAmp[s]
				symLLRs[s] = append(symLLRs[s], h.mcs.Scheme.DemodulateSoft([]complex128{est}, nv)...)
			}
		}
		for s := 0; s < h.nss; s++ {
			out[s] = append(out[s], fec.DeinterleaveLLRsCols(symLLRs[s], ncbpss, bps, h.interleaverCols())...)
		}
	}
	return out
}

// rxSTBC Alamouti-combines OFDM symbol pairs per carrier.
func (h *Ht) rxSTBC(rx [][]complex128, chans []*matrix.Matrix, dataStart, nSym int, noiseVar float64) [][]float64 {
	nd := h.grid.NumData()
	bps := h.mcs.Scheme.BitsPerSymbol()
	ncbpss := h.ncbpss()
	slotLen := h.grid.SymbolLen()
	if nSym%2 != 0 {
		nSym--
	}
	out := []([]float64){nil}
	for pair := 0; pair < nSym/2; pair++ {
		binsA := make([][]complex128, h.nrx)
		binsB := make([][]complex128, h.nrx)
		for j := 0; j < h.nrx; j++ {
			binsA[j] = h.grid.RawBins(rx[j][dataStart+(2*pair)*slotLen:])
			binsB[j] = h.grid.RawBins(rx[j][dataStart+(2*pair+1)*slotLen:])
		}
		llrA := make([]float64, 0, ncbpss)
		llrB := make([]float64, 0, ncbpss)
		for i := 0; i < nd; i++ {
			b := h.grid.Data[i]
			var e1, e2 complex128
			var gain float64
			for j := 0; j < h.nrx; j++ {
				g1 := chans[b].At(j, 0)
				g2 := chans[b].At(j, 1)
				yA := binsA[j][b]
				yB := binsB[j][b]
				e1 += cmplx.Conj(g1)*yA + g2*cmplx.Conj(yB)
				e2 += cmplx.Conj(g2)*yA - g1*cmplx.Conj(yB)
				gain += sq(g1) + sq(g2)
			}
			if gain < 1e-15 {
				gain = 1e-15
			}
			s1 := e1 / complex(gain, 0)
			s2 := e2 / complex(gain, 0)
			nv := noiseVar / gain
			llrA = append(llrA, h.mcs.Scheme.DemodulateSoft([]complex128{s1}, nv)...)
			llrB = append(llrB, h.mcs.Scheme.DemodulateSoft([]complex128{s2}, nv)...)
		}
		out[0] = append(out[0], fec.DeinterleaveLLRsCols(llrA, ncbpss, bps, h.interleaverCols())...)
		out[0] = append(out[0], fec.DeinterleaveLLRsCols(llrB, ncbpss, bps, h.interleaverCols())...)
	}
	return out
}

func sq(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }
