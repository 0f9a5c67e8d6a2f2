package learned

import (
	"fmt"

	"repro/internal/bloom"
)

// This file implements the two adaptive LBF variants of Bhattacharya,
// Bedathur & Bagchi ("Adaptive Learned Bloom Filters under Incremental
// Workloads", CoDS-COMAD 2020), cited in §II of the HABF paper as the
// state of the art for learned filters under inserts:
//
//   - CA-LBF (Classifier-Adaptive): newly inserted keys are buffered and
//     the classifier is periodically retrained over the full key set, so
//     accuracy recovers at the price of recurring training cost;
//   - IA-LBF (Index-Adaptive): the classifier is frozen; inserted keys
//     the model would miss go to a growing backup filter — memory is
//     sacrificed instead of compute.
//
// Both preserve the zero-false-negative contract at all times, including
// mid-retrain.

// IncrementalMode selects the adaptation strategy.
type IncrementalMode int

const (
	// ClassifierAdaptive retrains the model every RetrainEvery inserts.
	ClassifierAdaptive IncrementalMode = iota
	// IndexAdaptive never retrains; the backup filter absorbs new keys.
	IndexAdaptive
)

// String names the mode as in the original paper.
func (m IncrementalMode) String() string {
	if m == ClassifierAdaptive {
		return "CA-LBF"
	}
	return "IA-LBF"
}

// IncrementalLBF is a learned Bloom filter that accepts inserts after
// construction.
type IncrementalLBF struct {
	mode IncrementalMode
	cfg  IncrementalConfig

	model Model
	tau   float64

	positives [][]byte // full positive history (needed for retrains)
	negatives [][]byte // training negatives (fixed)

	backup       *bloom.Filter // holds model false negatives
	backupKeys   [][]byte      // keys resident in backup (for rebuilds)
	sinceRetrain int
}

// bitsPerBackupKey is the backup filter's rebuild trigger density.
const bitsPerBackupKey = 8

// IncrementalConfig tunes the incremental variants.
type IncrementalConfig struct {
	// BackupBits is the backup-filter budget at build time; the backup is
	// rebuilt at 2× whenever its load factor exceeds one key per
	// bitsPerBackupKey bits (IA-LBF "sacrifices memory").
	BackupBits uint64
	// RetrainEvery is the CA-LBF retrain period in inserts. Default 1024.
	RetrainEvery int
	// Train seeds the classifier training.
	Train TrainConfig
}

func (c IncrementalConfig) withDefaults() IncrementalConfig {
	if c.RetrainEvery == 0 {
		c.RetrainEvery = 1024
	}
	return c
}

// NewIncremental trains the initial model over the given sets and builds
// the starting backup filter.
func NewIncremental(mode IncrementalMode, positives, negatives [][]byte, cfg IncrementalConfig) (*IncrementalLBF, error) {
	cfg = cfg.withDefaults()
	if len(positives) == 0 {
		return nil, fmt.Errorf("learned: empty positive key set")
	}
	if cfg.BackupBits == 0 {
		return nil, fmt.Errorf("learned: zero backup budget")
	}
	l := &IncrementalLBF{
		mode:      mode,
		cfg:       cfg,
		positives: append([][]byte(nil), positives...),
		negatives: append([][]byte(nil), negatives...),
	}
	l.retrain()
	return l, nil
}

// retrain fits the model on the current history, re-derives τ, and
// rebuilds the backup filter with exactly the current false negatives.
func (l *IncrementalLBF) retrain() {
	l.model = TrainLogistic(l.positives, l.negatives, l.cfg.Train)
	tau, fns, _ := chooseTau(l.model, l.positives, l.negatives, l.cfg.BackupBits)
	l.tau = tau
	l.backupKeys = fns
	l.rebuildBackup()
	l.sinceRetrain = 0
}

// rebuildBackup sizes the backup for its resident keys at the configured
// density (never below the initial budget) and reinserts them.
func (l *IncrementalLBF) rebuildBackup() {
	bits := l.cfg.BackupBits
	need := uint64(bitsPerBackupKey * float64(len(l.backupKeys)+1))
	for bits < need {
		bits *= 2
	}
	k := bloom.OptimalK(bitsPerBackupKey)
	f, err := bloom.New(bits, k, bloom.StrategySplit128)
	if err != nil {
		// bits >= cfg.BackupBits > 0 and k >= 1: cannot happen.
		panic(err)
	}
	for _, key := range l.backupKeys {
		f.Add(key)
	}
	l.backup = f
}

// Insert adds a key to the member set. The key is queryable immediately.
func (l *IncrementalLBF) Insert(key []byte) {
	key = append([]byte(nil), key...)
	l.positives = append(l.positives, key)
	if l.model.Score(key) < l.tau {
		l.backupKeys = append(l.backupKeys, key)
		if float64(l.backup.MBits()) < bitsPerBackupKey*float64(len(l.backupKeys)) {
			l.rebuildBackup() // IA-LBF memory growth
		} else {
			l.backup.Add(key)
		}
	}
	if l.mode == ClassifierAdaptive {
		l.sinceRetrain++
		if l.sinceRetrain >= l.cfg.RetrainEvery {
			l.retrain()
		}
	}
}

// Contains reports whether key may be a member.
func (l *IncrementalLBF) Contains(key []byte) bool {
	if l.model.Score(key) >= l.tau {
		return true
	}
	return l.backup.Contains(key)
}

// Name returns "CA-LBF" or "IA-LBF".
func (l *IncrementalLBF) Name() string { return l.mode.String() }

// SizeBits returns model plus current backup footprint (IA-LBF's grows).
func (l *IncrementalLBF) SizeBits() uint64 {
	return l.model.SizeBits() + l.backup.SizeBits()
}

// BackupKeys reports how many keys the backup currently holds.
func (l *IncrementalLBF) BackupKeys() int { return len(l.backupKeys) }

// SinceLastRetrain reports the number of inserts since the last retrain —
// a test hook for the CA-LBF cadence.
func (l *IncrementalLBF) SinceLastRetrain() int { return l.sinceRetrain }
