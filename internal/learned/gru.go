package learned

import (
	"math"
	"math/rand"
)

// GRU is the paper's actual learned model (§V-A): "a 16-dimensional
// character-level RNN (GRU, in particular) ... with a 32-dimensional
// embedding layer", implemented from scratch with full BPTT training.
//
// It is an order of magnitude slower than the hashed-trigram logistic
// model this repository uses in the figure harness (which is why the
// harness defaults to the cheap model — the paper's point about learned-
// filter construction cost only gets stronger), but it is available for
// fidelity: TrainGRU produces a Model usable anywhere Logistic is.
type GRU struct {
	hidden int
	embDim int
	maxLen int

	emb []float32 // 256 × embDim

	wz, wr, wh []float32 // hidden × embDim
	uz, ur, uh []float32 // hidden × hidden
	bz, br, bh []float32 // hidden

	wOut []float32 // hidden
	bOut float32
}

// The GRU's architecture and SGD step.
const (
	gruHidden = 16 // the paper's dimension
	gruEmbDim = 32 // the paper's embedding width
	gruLR     = 0.05
)

// GRUConfig tunes training.
type GRUConfig struct {
	MaxLen int   // truncate keys beyond this many bytes; default 48
	Epochs int   // default 2
	Seed   int64 // default 1
}

func (c GRUConfig) withDefaults() GRUConfig {
	if c.MaxLen == 0 {
		c.MaxLen = 48
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TrainGRU fits the recurrent classifier on the labelled key sets.
func TrainGRU(positives, negatives [][]byte, cfg GRUConfig) *GRU {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	H, D := gruHidden, gruEmbDim
	g := &GRU{
		hidden: H,
		embDim: D,
		maxLen: cfg.MaxLen,
		emb:    randSlice(rng, 256*D, 0.3),
		wz:     randSlice(rng, H*D, 0.25),
		wr:     randSlice(rng, H*D, 0.25),
		wh:     randSlice(rng, H*D, 0.25),
		uz:     randSlice(rng, H*H, 0.25),
		ur:     randSlice(rng, H*H, 0.25),
		uh:     randSlice(rng, H*H, 0.25),
		bz:     make([]float32, H),
		br:     make([]float32, H),
		bh:     make([]float32, H),
		wOut:   randSlice(rng, H, 0.25),
	}

	type example struct {
		key   []byte
		label float32
	}
	examples := make([]example, 0, len(positives)+len(negatives))
	for _, k := range positives {
		examples = append(examples, example{k, 1})
	}
	for _, k := range negatives {
		examples = append(examples, example{k, 0})
	}

	ws := newGRUWorkspace(H, D, cfg.MaxLen)
	lr := float32(gruLR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(examples), func(i, j int) {
			examples[i], examples[j] = examples[j], examples[i]
		})
		for _, ex := range examples {
			g.step(ex.key, ex.label, lr, ws)
		}
		lr *= 0.6
	}
	return g
}

func randSlice(rng *rand.Rand, n int, scale float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * scale
	}
	return out
}

// gruWorkspace holds per-example activations so training allocates once.
type gruWorkspace struct {
	// Per step t: pre-activations and gates.
	z, r, hc, h [][]float32 // each maxLen+1 × hidden (h[0] = zero state)
	havg        []float32   // running sum of hidden states (mean pooling)
	xs          []int       // embedded byte per step
	dh, dz, dr, dhc,
	tmp, dx []float32
}

func newGRUWorkspace(h, d, maxLen int) *gruWorkspace {
	mk := func() [][]float32 {
		out := make([][]float32, maxLen+1)
		for i := range out {
			out[i] = make([]float32, h)
		}
		return out
	}
	return &gruWorkspace{
		z: mk(), r: mk(), hc: mk(), h: mk(),
		havg: make([]float32, h),
		xs:   make([]int, maxLen),
		dh:   make([]float32, h),
		dz:   make([]float32, h),
		dr:   make([]float32, h),
		dhc:  make([]float32, h),
		tmp:  make([]float32, h),
		dx:   make([]float32, d),
	}
}

func sigmoid32(x float32) float32 {
	switch {
	case x > 20:
		return 1
	case x < -20:
		return 0
	}
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

// forward runs the recurrence, returns the prediction and fills ws when
// train is true. n is the number of steps taken.
func (g *GRU) forward(key []byte, ws *gruWorkspace, train bool) (p float32, n int) {
	H, D := g.hidden, g.embDim
	n = len(key)
	if n > g.maxLen {
		n = g.maxLen
	}
	hPrev := ws.h[0]
	for i := range hPrev {
		hPrev[i] = 0
	}
	for i := range ws.havg {
		ws.havg[i] = 0
	}
	for t := 0; t < n; t++ {
		b := int(key[t])
		if train {
			ws.xs[t] = b
		}
		x := g.emb[b*D : (b+1)*D]
		z, r, hc, h := ws.z[t+1], ws.r[t+1], ws.hc[t+1], ws.h[t+1]
		for i := 0; i < H; i++ {
			var az, ar float32
			wzRow := g.wz[i*D : (i+1)*D]
			wrRow := g.wr[i*D : (i+1)*D]
			for j, xv := range x {
				az += wzRow[j] * xv
				ar += wrRow[j] * xv
			}
			uzRow := g.uz[i*H : (i+1)*H]
			urRow := g.ur[i*H : (i+1)*H]
			for j, hv := range hPrev {
				az += uzRow[j] * hv
				ar += urRow[j] * hv
			}
			z[i] = sigmoid32(az + g.bz[i])
			r[i] = sigmoid32(ar + g.br[i])
		}
		for i := 0; i < H; i++ {
			var ah float32
			whRow := g.wh[i*D : (i+1)*D]
			for j, xv := range x {
				ah += whRow[j] * xv
			}
			uhRow := g.uh[i*H : (i+1)*H]
			for j, hv := range hPrev {
				ah += uhRow[j] * (r[j] * hv)
			}
			hc[i] = tanh32(ah + g.bh[i])
			h[i] = (1-z[i])*hPrev[i] + z[i]*hc[i]
			ws.havg[i] += h[i]
		}
		hPrev = h
	}
	// Mean-pooled readout: averaging the hidden states gives every time
	// step a direct gradient path, which a 16-dim GRU needs on 40+-char
	// keys (a last-state readout trains ~not at all at this scale).
	if n == 0 {
		return sigmoid32(g.bOut), 0
	}
	inv := float32(1) / float32(n)
	var logit float32 = g.bOut
	for i := 0; i < H; i++ {
		logit += g.wOut[i] * ws.havg[i] * inv
	}
	return sigmoid32(logit), n
}

// step runs one SGD update with full backpropagation through time.
func (g *GRU) step(key []byte, label, lr float32, ws *gruWorkspace) {
	H, D := g.hidden, g.embDim
	p, n := g.forward(key, ws, true)
	if n == 0 {
		return
	}
	gOut := p - label // dL/dlogit for logistic loss
	inv := float32(1) / float32(n)

	dh := ws.dh
	dpool := make([]float32, H)
	for i := 0; i < H; i++ {
		dpool[i] = gOut * g.wOut[i] * inv // flows into every h_t
		g.wOut[i] -= lr * gOut * ws.havg[i] * inv
		dh[i] = 0
	}
	g.bOut -= lr * gOut

	for t := n; t >= 1; t-- {
		for i := 0; i < H; i++ {
			dh[i] += dpool[i]
		}
		z, r, hc := ws.z[t], ws.r[t], ws.hc[t]
		hPrev := ws.h[t-1]
		x := g.emb[ws.xs[t-1]*D : (ws.xs[t-1]+1)*D]

		dz, dr, dhc, tmp, dx := ws.dz, ws.dr, ws.dhc, ws.tmp, ws.dx
		for i := 0; i < H; i++ {
			dzi := dh[i] * (hc[i] - hPrev[i]) * z[i] * (1 - z[i])
			dhci := dh[i] * z[i] * (1 - hc[i]*hc[i])
			dz[i] = dzi
			dhc[i] = dhci
			tmp[i] = dh[i] * (1 - z[i]) // direct path into h_{t-1}
		}
		// Through the candidate's Uh (r ⊙ hPrev) term.
		for i := 0; i < H; i++ {
			dr[i] = 0
		}
		for i := 0; i < H; i++ {
			uhRow := g.uh[i*H : (i+1)*H]
			for j := 0; j < H; j++ {
				grad := dhc[i] * uhRow[j]
				dr[j] += grad * hPrev[j]
				tmp[j] += grad * r[j]
			}
		}
		for i := 0; i < H; i++ {
			dr[i] *= r[i] * (1 - r[i])
		}
		// Recurrent contributions of the gate pre-activations.
		for i := 0; i < H; i++ {
			uzRow := g.uz[i*H : (i+1)*H]
			urRow := g.ur[i*H : (i+1)*H]
			for j := 0; j < H; j++ {
				tmp[j] += dz[i]*uzRow[j] + dr[i]*urRow[j]
			}
		}
		// Parameter updates and input gradient.
		for j := 0; j < D; j++ {
			dx[j] = 0
		}
		for i := 0; i < H; i++ {
			wzRow := g.wz[i*D : (i+1)*D]
			wrRow := g.wr[i*D : (i+1)*D]
			whRow := g.wh[i*D : (i+1)*D]
			for j := 0; j < D; j++ {
				dx[j] += dz[i]*wzRow[j] + dr[i]*wrRow[j] + dhc[i]*whRow[j]
				wzRow[j] -= lr * dz[i] * x[j]
				wrRow[j] -= lr * dr[i] * x[j]
				whRow[j] -= lr * dhc[i] * x[j]
			}
			uzRow := g.uz[i*H : (i+1)*H]
			urRow := g.ur[i*H : (i+1)*H]
			uhRow := g.uh[i*H : (i+1)*H]
			for j := 0; j < H; j++ {
				uzRow[j] -= lr * dz[i] * hPrev[j]
				urRow[j] -= lr * dr[i] * hPrev[j]
				uhRow[j] -= lr * dhc[i] * (r[j] * hPrev[j])
			}
			g.bz[i] -= lr * dz[i]
			g.br[i] -= lr * dr[i]
			g.bh[i] -= lr * dhc[i]
		}
		embRow := g.emb[ws.xs[t-1]*D : (ws.xs[t-1]+1)*D]
		for j := 0; j < D; j++ {
			embRow[j] -= lr * dx[j]
		}
		copy(dh, tmp)
	}
}

// Score returns the membership probability estimate for key.
func (g *GRU) Score(key []byte) float64 {
	ws := newGRUWorkspace(g.hidden, g.embDim, g.maxLen)
	p, _ := g.forward(key, ws, false)
	return float64(p)
}

// SizeBits charges 32 bits per parameter, embeddings included.
func (g *GRU) SizeBits() uint64 {
	n := len(g.emb) + len(g.wz) + len(g.wr) + len(g.wh) +
		len(g.uz) + len(g.ur) + len(g.uh) +
		len(g.bz) + len(g.br) + len(g.bh) + len(g.wOut) + 1
	return uint64(n) * 32
}

var _ Model = (*GRU)(nil)
