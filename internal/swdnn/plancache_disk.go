package swdnn

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"swcaffe/internal/sw26010"
)

// On-disk plan-cache persistence. The in-process memoization makes
// repeat shapes free within one run; persisting the (model, op, shape)
// → plan table lets a cold start of the experiment harness skip the
// O(candidates³) tiling searches entirely.
//
// Format: a version line followed by a gob stream of entries. The
// version string is bumped whenever the entry schema (diskEntry), the
// hardware model struct or any planner cost function changes meaning;
// a mismatched or unreadable file is ignored on load (the cache is a
// pure accelerator — recomputing is always correct). Floats round-trip
// through gob exactly, so loaded plans are bit-identical to computed
// ones. Writes go through a temp file + rename so a crashed or
// concurrent writer can never leave a torn cache behind.

// planCacheVersion identifies the planner + key schema generation.
const planCacheVersion = "swcaffe-plancache-v1"

// diskEntry is the exported mirror of one memoized cache slot.
type diskEntry struct {
	Model sw26010.Model
	Op    uint8
	Aux   uint8
	Dims  [8]int

	IsPlan bool
	Plan   Plan
	Blocks [3]int
}

// SavePlanCache atomically writes every memoized plan and tiling
// search result to path, creating parent directories as needed. It
// returns the number of entries written.
func SavePlanCache(path string) (int, error) {
	var entries []diskEntry
	planCache.Range(func(k, v any) bool {
		key := k.(planKey)
		e := diskEntry{Model: internedValue(uint32(key.tag >> 16)), Op: uint8(key.tag >> 8), Aux: uint8(key.tag), Dims: key.dims}
		switch val := v.(type) {
		case Plan:
			e.IsPlan = true
			e.Plan = val
		case [3]int:
			e.Blocks = val
		default:
			return true // unknown slot type: skip, never corrupt the file
		}
		entries = append(entries, e)
		return true
	})
	// Deterministic file contents for identical cache states.
	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Aux != b.Aux {
			return a.Aux < b.Aux
		}
		for d := 0; d < len(a.Dims); d++ {
			if a.Dims[d] != b.Dims[d] {
				return a.Dims[d] < b.Dims[d]
			}
		}
		return fmt.Sprint(a.Model) < fmt.Sprint(b.Model)
	})

	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if _, err := fmt.Fprintln(w, planCacheVersion); err != nil {
		tmp.Close()
		return 0, err
	}
	enc := gob.NewEncoder(w)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			tmp.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// LoadPlanCache merges the entries of a previously saved cache into
// the in-process memoization table and returns how many were loaded.
// A missing file or a version mismatch is not an error (it returns 0):
// the cache warms later queries but is never required. A file that
// declares the current version yet fails to decode reports an error
// (entries decoded before the corruption are kept — they were written
// by a matching planner, so they are valid).
func LoadPlanCache(path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	version, err := r.ReadString('\n')
	if err != nil || version != planCacheVersion+"\n" {
		return 0, nil // other generation (or not a cache file): recompute
	}
	dec := gob.NewDecoder(r)
	loaded := 0
	for {
		var e diskEntry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return loaded, nil
			}
			return loaded, fmt.Errorf("swdnn: plan cache %s corrupt after %d entries: %w", path, loaded, err)
		}
		key := newPlanKey(internModel(e.Model), planOp(e.Op), e.Aux, e.Dims)
		if e.IsPlan {
			planCache.Store(key, e.Plan)
		} else {
			planCache.Store(key, e.Blocks)
		}
		loaded++
	}
}
