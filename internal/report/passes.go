package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"webfail/internal/core"
)

// attributionPasses feed the blame attribution. Co-location similarity
// (Tables 7–8) and proxy isolation (Table 9) are pure functions of the
// attribution, so they need these passes and no state of their own.
var attributionPasses = []core.PassName{core.PassGrids, core.PassFailures, core.PassPairs}

// artifact is one renderable artifact and the analyzer passes it reads
// beyond totals, which every artifact needs.
type artifact struct {
	name   string
	passes []core.PassName
}

// artifacts lists every artifact Run can render, in -artifacts order.
// Tables 1–2 render the topology alone.
var artifacts = []artifact{
	{"table1", nil},
	{"table2", nil},
	{"table3", []core.PassName{core.PassTraffic}},
	{"table4", []core.PassName{core.PassTraffic}},
	{"table5", attributionPasses},
	{"table6", attributionPasses},
	{"table7", attributionPasses},
	{"table8", attributionPasses},
	{"table9", attributionPasses},
	{"fig1", []core.PassName{core.PassTraffic}},
	{"fig2", []core.PassName{core.PassTraffic}},
	{"fig3", []core.PassName{core.PassTraffic}},
	{"fig4", []core.PassName{core.PassGrids}},
	{"fig5", []core.PassName{core.PassConns}},
	{"fig6", []core.PassName{core.PassConns}},
	{"fig7", []core.PassName{core.PassConns}},
	{"replicas", []core.PassName{core.PassGrids, core.PassFailures, core.PassPairs, core.PassReplicas}},
	{"headlines", []core.PassName{core.PassTraffic, core.PassGrids, core.PassFailures, core.PassPairs}},
}

// KnownArtifacts lists the valid -artifacts selections.
func KnownArtifacts() []string {
	out := make([]string, len(artifacts))
	for i, art := range artifacts {
		out[i] = art.name
	}
	return out
}

// ParseArtifacts splits an -artifacts list into a report selection.
// "all" maps to the empty selection, which Run and PassesFor treat as
// "everything"; PassesFor rejects unknown names.
func ParseArtifacts(list string) map[string]bool {
	sel := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(strings.ToLower(s))
		if s == "" || s == "all" {
			continue
		}
		sel[s] = true
	}
	return sel
}

// PassesFor resolves a report selection to the analyzer passes its
// artifacts require, in canonical order. An empty selection (or one
// with no true entries) means every artifact, matching Run's
// "empty = everything" semantics. Unknown artifact names error.
func PassesFor(sel map[string]bool) ([]core.PassName, error) {
	names := make([]string, 0, len(sel))
	for name, on := range sel {
		if on {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		names = KnownArtifacts()
	}
	need := map[core.PassName]bool{core.PassTotals: true}
	for _, name := range names {
		i := slices.IndexFunc(artifacts, func(art artifact) bool { return art.name == name })
		if i < 0 {
			return nil, fmt.Errorf("report: unknown artifact %q (known: %v)", name, KnownArtifacts())
		}
		for _, p := range artifacts[i].passes {
			need[p] = true
		}
	}
	out := make([]core.PassName, 0, len(need))
	for _, p := range core.AllPasses() {
		if need[p] {
			out = append(out, p)
		}
	}
	return out, nil
}
