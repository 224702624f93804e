package specfuzz

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/sim"
)

// knownSpectre is a hand-written gadget in the exact shape of the classic
// Spectre-v1 PoC (examples/spectre): bounds-check window, direct index
// encoding, Flush+Reload receiver. It anchors the oracle to ground truth —
// if the fuzzer cannot see THIS leak, it can see nothing.
func knownSpectre() GadgetSpec {
	return GadgetSpec{
		ID:                "g-known",
		Seed:              1,
		Window:            WindowBoundsCheck,
		Pattern:           PatternIndex,
		Receiver:          RecvFlushReload,
		Entries:           16,
		Stride:            512,
		TrainRounds:       5,
		FlushBounds:       true,
		FenceBeforeAttack: true,
		DelayAfterAttack:  true,
		SecretResident:    true,
		SecretA:           11,
		SecretB:           13,
	}
}

// fuzzPolicies keeps library tests to the two poles that matter: the
// unprotected baseline (must leak) and the paper's defense (must not).
// The full policy matrix runs in the CI smoke job via cmd/specfuzz.
func fuzzPolicies() []sim.Policy { return []sim.Policy{sim.NonSecure, sim.CleanupSpec} }

func TestGenerateDeterministicAndPrefixStable(t *testing.T) {
	a := Generate(42, 24)
	b := Generate(42, 24)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with one seed disagree")
	}
	// Growing a campaign must not reshuffle existing gadgets: the first n
	// specs are a prefix of any longer run, so cached cells stay valid.
	if !reflect.DeepEqual(a[:8], Generate(42, 8)) {
		t.Fatal("Generate is not prefix-stable")
	}
	ids := make(map[string]bool)
	for _, s := range a {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", s.ID, err)
		}
		if ids[s.ID] {
			t.Fatalf("duplicate gadget ID %s", s.ID)
		}
		ids[s.ID] = true
	}
	if reflect.DeepEqual(Generate(42, 8), Generate(43, 8)) {
		t.Fatal("different seeds produced identical gadgets")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range append(Generate(7, 8), knownSpectre()) {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back GadgetSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed %s:\n%+v\n%+v", s.ID, s, back)
		}
	}
	var k WindowKind
	if err := k.UnmarshalJSON([]byte(`"no-such-window"`)); err == nil {
		t.Fatal("unknown enum name accepted")
	}
}

// TestOracleKnownGadget is the subsystem's acceptance anchor: the known
// Spectre-v1 gadget must leak under the unprotected baseline and be fully
// cleaned by CleanupSpec.
func TestOracleKnownGadget(t *testing.T) {
	s := knownSpectre()
	v, err := RunPair(s, sim.Config{Policy: sim.NonSecure, Seed: s.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Leak {
		t.Fatalf("known Spectre gadget did not leak under nonsecure: %+v", v)
	}
	hasTiming := false
	for _, ch := range v.Channels {
		if ch == "timing" {
			hasTiming = true
		}
	}
	if !hasTiming {
		t.Fatalf("known gadget leaked without a timing channel: %v", v.Channels)
	}

	v, err = RunPair(s, sim.Config{Policy: sim.CleanupSpec, Seed: s.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if v.Leak {
		t.Fatalf("known gadget survived CleanupSpec: channels %v, maxΔ %d, state diffs %v",
			v.Channels, v.MaxTimingDelta, v.StateDiffs)
	}
}

// runReport runs a small campaign on a fresh engine with the given worker
// count and optional cache dir.
func runReport(t *testing.T, workers int, cacheDir string, opts Options) (Report, *campaign.Engine) {
	t.Helper()
	eng := campaign.NewEngine()
	eng.Workers = workers
	if cacheDir != "" {
		cache, err := campaign.OpenCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		eng.Cache = cache
	}
	rep, err := Run(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("cells failed: %v", rep.Failures)
	}
	return rep, eng
}

// marshal strips CacheHits (execution telemetry, not a verdict) and
// renders the rest for byte comparison.
func marshal(t *testing.T, rep Report) []byte {
	t.Helper()
	rep.CacheHits = 0
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministicAcrossWorkers is the seed-determinism golden test:
// one seed, serial vs 8-way parallel, byte-identical verdicts and corpus.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	opts := Options{Seed: 5, Count: 6, Policies: fuzzPolicies()}
	serial, _ := runReport(t, 1, "", opts)
	parallel, _ := runReport(t, 8, "", opts)
	if !bytes.Equal(marshal(t, serial), marshal(t, parallel)) {
		t.Fatal("parallel run diverged from serial run")
	}

	var bufA, bufB bytes.Buffer
	if err := WriteCorpus(&bufA, CorpusFromReport(serial, opts.Policies)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCorpus(&bufB, CorpusFromReport(parallel, opts.Policies)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("corpora differ between serial and parallel runs")
	}

	// Repeating the serial run must also be byte-stable.
	again, _ := runReport(t, 1, "", opts)
	if !bytes.Equal(marshal(t, serial), marshal(t, again)) {
		t.Fatal("repeat run diverged")
	}
}

// TestRunResumesFromCache: a second campaign over the same grid must be
// served entirely from the cell cache — zero simulations — and fold to the
// same verdicts, which is what makes an interrupted fuzz resumable.
func TestRunResumesFromCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	opts := Options{Seed: 9, Count: 4, Policies: fuzzPolicies()}

	cold, first := runReport(t, 4, dir, opts)
	if first.Simulations() != int64(opts.Count*len(opts.Policies)) {
		t.Fatalf("cold run simulated %d cells, want %d", first.Simulations(), opts.Count*len(opts.Policies))
	}
	warm, second := runReport(t, 4, dir, opts)
	if second.Simulations() != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", second.Simulations())
	}
	if warm.CacheHits != opts.Count*len(opts.Policies) {
		t.Fatalf("warm run hit cache %d times, want %d", warm.CacheHits, opts.Count*len(opts.Policies))
	}
	if !bytes.Equal(marshal(t, cold), marshal(t, warm)) {
		t.Fatal("cached verdicts differ from simulated ones")
	}
}

func TestMinimizeShrinksAndStillLeaks(t *testing.T) {
	s := knownSpectre()
	s.NoiseBlocks = 3
	s.TrainRounds = 9
	cfg := sim.Config{Policy: sim.NonSecure, Seed: s.Seed}
	mr, err := Minimize(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Steps == 0 {
		t.Fatalf("minimizer accepted no reduction on a padded gadget (%d trials)", mr.Trials)
	}
	if err := mr.Reduced.Validate(); err != nil {
		t.Fatalf("reduced spec invalid: %v", err)
	}
	if mr.Reduced.NoiseBlocks != 0 {
		t.Fatalf("noise not stripped: %+v", mr.Reduced)
	}
	v, err := RunPair(mr.Reduced, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Leak {
		t.Fatal("reduced gadget no longer leaks")
	}

	// A gadget that does not leak must be rejected, not "minimized".
	clean := knownSpectre()
	if _, err := Minimize(clean, sim.Config{Policy: sim.CleanupSpec, Seed: clean.Seed}); err == nil {
		t.Fatal("Minimize accepted a non-leaking input")
	}
}

func TestCorpusRoundTripAndValidation(t *testing.T) {
	entries := []CorpusEntry{{
		Spec: knownSpectre(),
		Seed: 1,
		Expect: []Expectation{
			{Policy: string(sim.NonSecure), Leak: true, Channels: []string{"timing"}},
			{Policy: string(sim.CleanupSpec), Leak: false},
		},
	}}
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := SaveCorpus(path, entries); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, back) {
		t.Fatalf("corpus round trip changed entries:\n%+v\n%+v", entries, back)
	}

	if _, err := ReadCorpus(strings.NewReader("{not json}\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("bad JSON not rejected with a line number: %v", err)
	}
	bad := knownSpectre()
	bad.Entries = 13 // not a power of two
	data, _ := json.Marshal(CorpusEntry{Spec: bad, Seed: 1})
	if _, err := ReadCorpus(bytes.NewReader(append(data, '\n'))); err == nil {
		t.Fatal("invalid spec accepted from corpus")
	}
}

// TestShippedSeedCorpus keeps the committed corpus honest under tier-1:
// every entry must parse, validate, and carry a nonsecure leak
// expectation, and the first entry must actually replay to (leaks
// unprotected, clean under CleanupSpec). The full-corpus × full-policy
// replay is the CI smoke-fuzz job (`specfuzz corpus`).
func TestShippedSeedCorpus(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("testdata", "seed-corpus.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("shipped corpus is empty")
	}
	for _, e := range entries {
		leaksBaseline := false
		for _, x := range e.Expect {
			if x.Policy == string(sim.NonSecure) && x.Leak {
				leaksBaseline = true
			}
		}
		if !leaksBaseline {
			t.Fatalf("%s: shipped entry without a nonsecure leak expectation", e.Spec.ID)
		}
	}
	rep := Replay(entries[:1], fuzzPolicies())
	if len(rep.Mismatches) != 0 || len(rep.Failures) != 0 {
		t.Fatalf("first shipped entry does not replay: %+v", rep)
	}
	if rep.Leaks(string(sim.NonSecure)) != 1 || rep.Leaks(string(sim.CleanupSpec)) != 0 {
		t.Fatalf("first shipped entry verdicts drifted: %+v", rep.Policies)
	}
}

func TestReplayChecksExpectations(t *testing.T) {
	good := CorpusEntry{
		Spec: knownSpectre(),
		Seed: 1,
		Expect: []Expectation{
			{Policy: string(sim.NonSecure), Leak: true, Channels: []string{"timing"}},
			{Policy: string(sim.CleanupSpec), Leak: false},
		},
	}
	rep := Replay([]CorpusEntry{good}, fuzzPolicies())
	if len(rep.Mismatches) != 0 || len(rep.Failures) != 0 {
		t.Fatalf("clean corpus reported problems: %+v", rep)
	}
	if rep.Leaks(string(sim.NonSecure)) != 1 || rep.Leaks(string(sim.CleanupSpec)) != 0 {
		t.Fatalf("replay columns wrong: %+v", rep.Policies)
	}
	if rep.Leaks("no-such-policy") != -1 {
		t.Fatal("unreplayed policy did not report -1")
	}

	// A corpus claiming CleanupSpec leaks must be flagged as a mismatch.
	lying := good
	lying.Expect = []Expectation{{Policy: string(sim.CleanupSpec), Leak: true}}
	rep = Replay([]CorpusEntry{lying}, []sim.Policy{sim.CleanupSpec})
	if len(rep.Mismatches) != 1 {
		t.Fatalf("expectation violation not detected: %+v", rep)
	}
}
