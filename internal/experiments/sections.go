package experiments

// FigureSections is the machine-readable form of the evaluation: the typed
// rows behind each report table, one optional section per experiment
// (absent sections were not run). Every section is a pure function of the
// code — testdata/figures.golden.json pins the eight the full report
// covers — which is what lets a PR claim "no figure moved" with a diff.
type FigureSections struct {
	Fig1      []Fig1Row      `json:"fig1,omitempty"`
	Fig7      []Fig7Config   `json:"fig7,omitempty"`
	Fig8      []Fig8Row      `json:"fig8,omitempty"`
	Fig9      []Fig9Row      `json:"fig9,omitempty"`
	Fig10     []Fig10Row     `json:"fig10,omitempty"`
	Fig12     []Fig12Row     `json:"fig12,omitempty"`
	CommStats []CommStatsRow `json:"comm_stats,omitempty"`
	Macro     []MacroRow     `json:"macro,omitempty"`
	RegSweep  []RegSweepRow  `json:"reg_sweep,omitempty"`
}

// CollectFigures gathers the typed rows for the selected experiment, named
// as paperbench's -fig names them ("" = every figure the full report
// covers; the register sweep is not part of the full report and is
// collected only when selected).
func CollectFigures(fig string) FigureSections {
	var s FigureSections
	all := fig == ""
	if all || fig == "1" {
		s.Fig1 = Fig1()
	}
	if all || fig == "7" {
		s.Fig7 = Fig7()
	}
	if all || fig == "8" {
		s.Fig8 = Fig8()
	}
	if all || fig == "9" {
		s.Fig9 = Fig9()
	}
	if all || fig == "10" {
		s.Fig10 = Fig10()
	}
	if all || fig == "12" {
		s.Fig12 = Fig12()
	}
	if all || fig == "stats" {
		s.CommStats = CommStats()
	}
	if all || fig == "macro" {
		s.Macro = MacroAblation()
	}
	if fig == "regs" {
		s.RegSweep = RegSweep()
	}
	return s
}
