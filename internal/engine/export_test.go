package engine

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// Clone exposes the typed deep copy to the external tests.
var Clone = clone

// JSONClone is the reference the typed deep copy is held to: the job's
// JSON form decoded.
func JSONClone(t testing.TB, j *Job) *Job {
	t.Helper()
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("encode job: %v", err)
	}
	var c Job
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return &c
}

// CheckAgreement reports whether Canonicalize's scenario checks give the
// verdict, with the same error text, of the builders execution runs on
// the canonical scenario. Jobs that fail before their scenario is checked
// agree trivially.
func CheckAgreement(j *Job) error {
	if !j.Kind.Valid() {
		return nil
	}
	c := clone(j)
	if c.canonicalize() != nil {
		return nil
	}
	checkErr, buildErr := c.checkScenario(), c.buildScenario()
	if fmt.Sprint(checkErr) != fmt.Sprint(buildErr) {
		return fmt.Errorf("%s job: checks say %v, builders say %v", j.Kind, checkErr, buildErr)
	}
	return nil
}

// buildScenario validates a canonical job's scenario by building what
// its kind executes: the reference checkScenario is held to.
func (j *Job) buildScenario() error {
	switch j.Kind {
	case KindCompare, KindOptimize, KindSweep:
		spec, err := j.Scenario.Spec()
		if err == nil && j.isTraceDesign() {
			_, err = j.Scenario.BuildTrace(spec)
		}
		return err
	case KindTransient, KindRuntime:
		_, err := j.Scenario.RuntimeSpec()
		return err
	case KindThermalMap:
		if !scenario.IsMapOnlyPreset(j.Scenario.Preset) {
			_, err := j.Scenario.Spec()
			return err
		}
	}
	return j.checkScenario() // the fixed-map and arch-experiment checks build nothing
}
