package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/rcbt"
)

// persist journals one record as DataDir/jobs/<id>.json via the
// write-temp-then-rename idiom, so a crash mid-write leaves either the
// old record or the new one, never a torn file.
func (m *Manager) persist(rec *Record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(m.jobsDir, rec.ID+".json"), data)
}

// saveModel writes a model envelope through atomicWrite: a crashed
// train job never leaves a half-written model a restarted server would
// try to load, and two train jobs saving one model name at once cannot
// truncate or steal each other's staging file.
func (m *Manager) saveModel(path string, model *rcbt.Model) error {
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return err
	}
	return atomicWrite(path, buf.Bytes())
}

func atomicWrite(path string, data []byte) error {
	// The temp name is unique per call (not "<path>.tmp") so two
	// concurrent writers of the same record cannot steal each other's
	// staging file; the loser's rename just lands second.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()      // vetsuite:allow uncheckederr -- error path, Write failure already reported
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	return nil
}

// recoverJournal creates the data directories and loads every journaled
// record. Jobs that were queued or running when their process died are
// rewritten as failed with an interrupted cause — a restarted manager
// never reports a job it is not actually running.
func (m *Manager) recoverJournal() error {
	for _, dir := range []string{m.jobsDir, m.modelsDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	paths, err := filepath.Glob(filepath.Join(m.jobsDir, "*.json"))
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var recovered []*Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("jobs: recover: %w", err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			m.logf("jobs: skipping unreadable journal file %s: %v", p, err)
			continue
		}
		if rec.Schema != JournalSchemaVersion {
			m.logf("jobs: skipping journal file %s: schema %d (want %d)", p, rec.Schema, JournalSchemaVersion)
			continue
		}
		if rec.ID == "" {
			m.logf("jobs: skipping journal file %s: no job id", p)
			continue
		}
		if !rec.Terminal() {
			now := time.Now().UTC()
			rec.Error = "interrupted: manager exited while the job was " + rec.State
			rec.State = StateFailed
			rec.ErrCause = CauseInterrupted
			rec.FinishedAt = &now
			if err := m.persist(&rec); err != nil {
				return fmt.Errorf("jobs: recover: %w", err)
			}
			m.logf("job %s recovered as failed (interrupted)", rec.ID)
		}
		recovered = append(recovered, &rec)
	}
	sortRecovered(recovered)
	for _, rec := range recovered {
		m.recs[rec.ID] = rec
		m.order = append(m.order, rec.ID)
		m.noteTerminalLocked(rec)
	}
	return nil
}
