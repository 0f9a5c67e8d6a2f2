package dataset

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
)

// File I/O for the key/cost files written by cmd/habfgen (one key or one
// float per line), so external workloads can be replayed through the
// same experiment paths as the synthetic ones.

// LoadKeys reads a key file: one key per line, byte-exact (no trailing
// newline in the key). Lines may be up to 1 MiB.
func LoadKeys(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		out = append(out, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: %s: no keys", path)
	}
	return out, nil
}

// LoadCosts reads a cost file: one finite, non-negative float per line.
func LoadCosts(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s:%d: %w", path, line, err)
		}
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("dataset: %s:%d: invalid cost %v (want finite and >= 0)", path, line, v)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return out, nil
}

// SaveKeys writes keys one per line (the habfgen format).
func SaveKeys(path string, keys [][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, k := range keys {
		if _, err := w.Write(k); err != nil {
			f.Close()
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveCosts writes costs one per line (the habfgen format).
func SaveCosts(path string, costs []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, c := range costs {
		if _, err := fmt.Fprintf(w, "%g\n", c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
