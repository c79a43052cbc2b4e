package measure

// DatasetMeta identifies a run: the description stored with every
// dataset file (internal/dataset).
type DatasetMeta struct {
	Seed         int64
	StartUnix    int64
	EndUnix      int64
	Clients      int
	Websites     int
	Transactions int64 // total transactions performed (not all stored)
	Failures     int64

	// RunSeed is the per-transaction sampling seed (webfail -runseed).
	// Replaying fast mode over the same topology, scenario, and RunSeed
	// reproduces the stored record stream exactly — the forensics replay
	// in webfail-analyze depends on it. Gob decodes datasets written
	// before the field existed to zero; consumers treat that as the CLI
	// default seed of 1.
	RunSeed int64

	// Scenario names the world that produced the dataset; empty means
	// the paper-default roster (all datasets written before scenario
	// metadata existed). SpecHash is the scenario spec's deterministic
	// hash, and SpecJSON embeds the full spec document so analysis can
	// reconstruct the exact world even for file-based scenarios that
	// are not checked in. Gob decodes files written without these
	// fields to their zero values.
	Scenario string
	SpecHash string
	SpecJSON []byte
}
