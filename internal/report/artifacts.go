package report

// ArtifactMode declares an artifact's rendering contract at mega-roster
// scale: every artifact must state whether it is computed from complete
// listings or tolerates bounded top-k retention. Both kinds are
// byte-identical for any shard count or merge order — top-k selection
// runs under a strict total order, so truncation is deterministic — but
// only BoundedTopK artifacts are allowed to cap the state their
// rendering materializes.
type ArtifactMode uint8

// Artifact rendering contracts.
const (
	// Exact artifacts derive from complete pass state with no
	// retention cap.
	Exact ArtifactMode = iota
	// BoundedTopK artifacts print a fixed number of rows selected by a
	// strict total order (rate/size descending, indexes ascending).
	// They equal the complete listing truncated, but at mega-roster
	// scale the renderer may retain only the top k candidates
	// (core.TopFailingPairs, core.CoLocatedSimilarityTop) instead of
	// materializing the full listing.
	BoundedTopK
)

func (m ArtifactMode) String() string {
	if m == BoundedTopK {
		return "bounded-top-k"
	}
	return "exact"
}

// artifactModes assigns every known artifact its contract. Table 6
// prints the 12 most failure-prone servers and Table 8 the top
// table8Rows co-located pairs; everything else is a complete table,
// histogram, or figure.
var artifactModes = map[string]ArtifactMode{
	"table1":    Exact,
	"table2":    Exact,
	"table3":    Exact,
	"table4":    Exact,
	"table5":    Exact,
	"table6":    BoundedTopK,
	"table7":    Exact,
	"table8":    BoundedTopK,
	"table9":    Exact,
	"fig1":      Exact,
	"fig2":      Exact,
	"fig3":      Exact,
	"fig4":      Exact,
	"fig5":      Exact,
	"fig6":      Exact,
	"fig7":      Exact,
	"replicas":  Exact,
	"headlines": Exact,
}

// ModeFor returns the artifact's rendering contract; unknown artifacts
// report Exact and false.
func ModeFor(artifact string) (ArtifactMode, bool) {
	m, ok := artifactModes[artifact]
	return m, ok
}
