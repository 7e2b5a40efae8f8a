// Package elastic provides the fault-tolerance substrate for the
// distributed trainer: deterministic checkpoint/restore of full
// trainer state and a reproducible fault-injection plan.
//
// The paper's cluster trains for days at p = 1024 nodes, where a
// single-node failure is the expected case. The recovery story built
// here is shrink-and-continue: a failed rank is detected, the world
// re-forms at p' < p, and training resumes bit-reproducibly from the
// last checkpoint. Everything in this package is therefore designed
// around determinism first: a checkpoint restores to the exact bits,
// and a fault plan kills the same rank at the same point every run.
// The trainers load batches from shard schedules indexed by step
// (dataset.Shard), so the step counter names the input stream's
// position and a checkpoint carries no sampler state.
package elastic

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version identifies the checkpoint schema generation. It is bumped
// whenever State changes shape or meaning. Unlike the plan cache —
// which silently ignores a mismatched file because recomputing is
// always correct — a checkpoint IS the training state, so loading a
// foreign generation must fail loudly rather than guess.
const Version = "swcaffe-elastic-checkpoint-v2"

// Blob is one named tensor captured from the trainer: a learnable
// parameter, a batch-norm running statistic, or a solver momentum
// buffer. Shape is the tensor's N,C,H,W; Data round-trips through gob
// exactly (gob encodes float32 bits, not decimal text), which is what
// makes restored trainers hex-identical.
type Blob struct {
	Name  string
	Shape [4]int
	Data  []float32
}

// State is a full trainer checkpoint: everything needed to rebuild a
// trainer that is bit-identical to one that never stopped.
type State struct {
	// Step is the number of completed trainer iterations.
	Step int
	// World is the rank count at capture time. Restore does not
	// require the same world — shrink-and-continue restores a p-world
	// checkpoint into a p' < p trainer — but it is recorded so tools
	// can report what shape the run had.
	World int
	// SolverIter is the solver's completed-update counter, which
	// drives the learning-rate policy.
	SolverIter int
	// Params holds every network parameter (learnables and BN running
	// statistics) in net order; History holds the solver's momentum
	// buffers for the learnables that have one, in the same order.
	Params  []Blob
	History []Blob
}

// Save atomically writes st to path, creating parent directories as
// needed. The format mirrors the plan cache: a version line followed
// by a gob stream, written to a temp file and renamed into place so a
// crashed writer can never leave a torn checkpoint behind.
func Save(path string, st *State) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if _, err := fmt.Fprintln(w, Version); err != nil {
		tmp.Close()
		return err
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a checkpoint written by Save. A version mismatch is a
// hard error naming both generations: silently reinterpreting an old
// checkpoint under a new schema would corrupt training state, the one
// thing a checkpoint exists to protect.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	version, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("elastic: checkpoint %s: unreadable header: %w", path, err)
	}
	if got := version[:len(version)-1]; got != Version {
		return nil, fmt.Errorf("elastic: checkpoint %s has version %q, this build reads %q: refusing to reinterpret training state across schema generations", path, got, Version)
	}
	var st State
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("elastic: checkpoint %s: truncated", path)
		}
		return nil, fmt.Errorf("elastic: checkpoint %s: corrupt: %w", path, err)
	}
	return &st, nil
}
