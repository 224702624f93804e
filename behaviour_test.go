package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/sim"
)

// The behaviour lock: cycle-exact fingerprints of the simulator's output.
// Every simulated statistic of a cell (the full sim.Result) is hashed, so
// any change to timing, ordering or counting anywhere in the model moves a
// digest. A refactor or speed-up must leave them all unchanged; changing a
// pinned value needs a CHANGES.md line naming the intended behaviour change.

// lockedGrids are the two simbench grid workloads at their benchmark
// window, seed 1; the digests are simbench's `digest` lines for them.
var lockedGrids = []struct {
	name      string
	workloads []string
	digest    string
}{
	{"grid_squash", []string{"gobmk", "sjeng", "perl", "povray"}, "bef1b4dd99c4dadeeb9967aaf4af4808"},
	{"grid_memory", []string{"lbm", "libq", "milc", "soplex", "mcf"}, "fe58f3cdd444566f068181f115fba93f"},
}

// cellDigest folds the sha256 of each cell's JSON-encoded sim.Result, in
// job order, into one 128-bit digest (the same fold as simbench's).
func cellDigest(t *testing.T, results []campaign.JobResult) string {
	t.Helper()
	fold := sha256.New()
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Job, jr.Err)
		}
		blob, err := json.Marshal(jr.Result)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		fold.Write([]byte(hex.EncodeToString(sum[:])))
		fold.Write([]byte{'\n'})
	}
	return hex.EncodeToString(fold.Sum(nil))[:32]
}

func TestBehaviourLockGrids(t *testing.T) {
	for _, g := range lockedGrids {
		t.Run(g.name, func(t *testing.T) {
			grid := campaign.Grid{Name: g.name, Workloads: g.workloads, Policies: sim.Policies(),
				Seeds: []uint64{1}, Instructions: 150_000}
			eng := campaign.NewEngine() // no Cache: every cell simulates
			results := eng.Run(grid.Jobs())
			if got := cellDigest(t, results); got != g.digest {
				t.Errorf("digest %s, want %s: simulated behaviour changed", got, g.digest)
			}
		})
	}
}

// spectreGolden holds the Figure 11 PoC's full result per policy.
const spectreGolden = "testdata/spectre_golden.json"

func TestBehaviourLockSpectre(t *testing.T) {
	blob, err := os.ReadFile(filepath.FromSlash(spectreGolden))
	if err != nil {
		t.Fatal(err)
	}
	var want map[sim.Policy]sim.SpectreResult
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range []sim.Policy{sim.NonSecure, sim.CleanupSpec} {
		got, err := sim.RunSpectre(p, 20)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want[p])
		if string(g) != string(w) {
			t.Errorf("%s: Spectre PoC result changed:\n got %s\nwant %s", p, g, w)
		}
	}
}
