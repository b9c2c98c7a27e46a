package kb

import (
	"bytes"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"disarcloud/internal/eeb"
)

func sample(arch string, nodes int, secs float64) Sample {
	return Sample{
		Architecture: arch,
		Nodes:        nodes,
		Params: eeb.CharacteristicParams{
			RepresentativeContracts: 10, MaxHorizon: 20, FundAssets: 5,
			RiskFactors: 3, OuterPaths: 1000, InnerPaths: 50,
		},
		Seconds: secs,
	}
}

func TestSampleValidate(t *testing.T) {
	if err := sample("c3.4xlarge", 2, 100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Sample{
		func() Sample { s := sample("", 2, 100); return s }(),
		func() Sample { s := sample("a", 0, 100); return s }(),
		func() Sample { s := sample("a", 2, 0); return s }(),
		func() Sample { s := sample("a", 2, 100); s.Params.MaxHorizon = 0; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sample %d accepted", i)
		}
	}
}

func TestAddAndQuery(t *testing.T) {
	k := New()
	if err := k.Add(sample("c3.4xlarge", 1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := k.Add(sample("c3.4xlarge", 2, 60)); err != nil {
		t.Fatal(err)
	}
	if err := k.Add(sample("m4.4xlarge", 1, 130)); err != nil {
		t.Fatal(err)
	}
	if err := k.Add(sample("", 1, 1)); err == nil {
		t.Fatal("invalid sample accepted")
	}
	if k.Len() != 3 {
		t.Fatalf("Len = %d", k.Len())
	}
	if got := len(k.ByArchitecture("c3.4xlarge")); got != 2 {
		t.Fatalf("ByArchitecture = %d entries", got)
	}
	archs := k.Architectures()
	if len(archs) != 2 || archs[0] != "c3.4xlarge" || archs[1] != "m4.4xlarge" {
		t.Fatalf("Architectures = %v", archs)
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	k := New()
	_ = k.Add(sample("x.large", 1, 50))
	got := k.Samples()
	got[0].Seconds = 999
	if k.Samples()[0].Seconds != 50 {
		t.Fatal("Samples exposed internal storage")
	}
}

func TestDatasetSchema(t *testing.T) {
	k := New()
	_ = k.Add(sample("c4.8xlarge", 3, 200))
	d := k.Dataset("c4.8xlarge")
	if d.Len() != 1 {
		t.Fatalf("dataset has %d rows", d.Len())
	}
	if d.NumFeatures() != 7 { // nodes + 6 characteristic params
		t.Fatalf("dataset has %d features", d.NumFeatures())
	}
	row := d.Instances[0]
	if row.Features[0] != 3 || row.Target != 200 {
		t.Fatalf("row = %+v", row)
	}
	if len(FeatureNames()) != 7 {
		t.Fatalf("FeatureNames = %v", FeatureNames())
	}
	if k.Dataset("nonexistent").Len() != 0 {
		t.Fatal("unknown architecture should give empty dataset")
	}
}

// TestDatasetRowsAreTheSamplesFeatures pins the one-pass Dataset to the
// per-sample definition it replaced: row i is the i-th matching sample's
// Features(), in store order; the rows share one backing array without
// reaching into each other; Count agrees with the row count.
func TestDatasetRowsAreTheSamplesFeatures(t *testing.T) {
	k := New()
	for i := 0; i < 9; i++ {
		arch := "c4.8xlarge"
		if i%3 == 1 {
			arch = "m4.4xlarge"
		}
		_ = k.Add(sample(arch, 1+i, float64(100+i)))
	}
	want := k.ByArchitecture("c4.8xlarge")
	d := k.Dataset("c4.8xlarge")
	if d.Len() != len(want) || k.Count("c4.8xlarge") != len(want) || k.Count("nonexistent") != 0 {
		t.Fatalf("dataset has %d rows, Count says %d, ByArchitecture %d", d.Len(), k.Count("c4.8xlarge"), len(want))
	}
	for i, in := range d.Instances {
		if !slices.Equal(in.Features, want[i].Features()) || in.Target != want[i].Seconds {
			t.Fatalf("row %d = %+v, sample %+v", i, in, want[i])
		}
	}
	next := d.Instances[1].Features[0]
	_ = append(d.Instances[0].Features, -1) // must reallocate, not spill into row 1
	if d.Instances[1].Features[0] != next {
		t.Fatal("appending to a row overwrote its neighbour: rows are not capacity-limited")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := New()
	_ = k.Add(sample("c3.4xlarge", 1, 111.5))
	_ = k.Add(sample("m4.10xlarge", 4, 95.25))
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d samples", loaded.Len())
	}
	if loaded.Samples()[1].Seconds != 95.25 {
		t.Fatal("payload corrupted in round trip")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid JSON, invalid sample.
	if _, err := Load(bytes.NewBufferString(`[{"architecture":"","nodes":1,"params":{},"seconds":5}]`)); err == nil {
		t.Fatal("invalid sample accepted on load")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.json")
	k := New()
	_ = k.Add(sample("c3.8xlarge", 2, 300))
	if err := k.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 {
		t.Fatal("file round trip lost samples")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	k := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = k.Add(sample("c3.4xlarge", g+1, float64(i+1)))
				_ = k.Len()
				_ = k.ByArchitecture("c3.4xlarge")
			}
		}(g)
	}
	wg.Wait()
	if k.Len() != 800 {
		t.Fatalf("Len = %d after concurrent adds", k.Len())
	}
}
