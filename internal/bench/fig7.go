package bench

import (
	"fmt"
	"io"

	"repro/internal/rcbt"
)

// Fig7Point is one (dataset, nl) accuracy measurement.
type Fig7Point struct {
	Dataset  string
	NL       int
	Accuracy float64
}

// Fig7 regenerates Figure 7: RCBT accuracy versus nl (the number of
// lower-bound rules per rule group) on the ALL and LC datasets. The
// paper's observation: curves flatten for nl > 15.
func Fig7(w io.Writer, scale Scale, nls []int) ([]Fig7Point, error) {
	if len(nls) == 0 {
		nls = []int{1, 5, 10, 15, 20, 25, 30}
	}
	var out []Fig7Point
	for _, p := range profiles(scale) {
		if bn := baseName(p.Name); bn != "ALL" && bn != "LC" {
			continue
		}
		pr, err := prepare(p)
		if err != nil {
			return nil, err
		}
		header(w, fmt.Sprintf("Figure 7: RCBT accuracy vs nl on %s", p.Name))
		fmt.Fprintf(w, "%-6s %10s\n", "nl", "accuracy")
		for _, nl := range nls {
			c, err := rcbt.Train(pr.dTrain, rcbt.Config{K: 10, NL: nl, MinsupFrac: 0.7})
			if err != nil {
				return nil, err
			}
			preds, _ := c.PredictDataset(pr.dTest)
			correct := 0
			for r, lab := range preds {
				if lab == pr.dTest.Labels[r] {
					correct++
				}
			}
			acc := float64(correct) / float64(pr.dTest.NumRows())
			fmt.Fprintf(w, "%-6d %9.2f%%\n", nl, acc*100)
			out = append(out, Fig7Point{Dataset: p.Name, NL: nl, Accuracy: acc})
		}
	}
	return out, nil
}
