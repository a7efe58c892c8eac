package schedule

import (
	"encoding/json"
	"fmt"

	"ios/internal/graph"
)

// jsonSchedule is the serialized form: stages of groups of node names.
type jsonSchedule struct {
	Graph  string      `json:"graph"`
	Stages []jsonStage `json:"stages"`
}

type jsonStage struct {
	Strategy string     `json:"strategy"`
	Groups   [][]string `json:"groups"`
}

// MarshalJSON serializes the schedule by node name, so it can be stored
// alongside a model definition and reloaded later (the paper's "schedule
// recipe" that specialization produces per device and batch size). The
// JSON is compact, as a document embedding it gets it; a file meant for
// people indents it at the write (json.MarshalIndent(s, "", "  ")).
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := jsonSchedule{Graph: s.Graph.Name}
	for _, st := range s.Stages {
		js := jsonStage{Strategy: st.Strategy.String()}
		for _, g := range st.Groups {
			names := make([]string, len(g))
			for i, n := range g {
				names[i] = n.Name
			}
			js.Groups = append(js.Groups, names)
		}
		out.Stages = append(out.Stages, js)
	}
	return json.Marshal(out)
}

// FromJSON reconstructs a schedule against the given graph.
func FromJSON(data []byte, g *graph.Graph) (*Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	s := &Schedule{Graph: g}
	for si, jst := range js.Stages {
		strat, err := ParseStrategy(jst.Strategy)
		if err != nil {
			return nil, fmt.Errorf("schedule: stage %d: %w", si+1, err)
		}
		st := Stage{Strategy: strat}
		for _, names := range jst.Groups {
			grp := make([]*graph.Node, 0, len(names))
			for _, name := range names {
				n := g.NodeByName(name)
				if n == nil {
					return nil, fmt.Errorf("schedule: stage %d references unknown node %q", si+1, name)
				}
				grp = append(grp, n)
			}
			st.Groups = append(st.Groups, grp)
		}
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}
