//go:build !race

package experiments

import "testing"

// TestQuickStudiesPinned pins what the seeded quick studies actually
// produce: the churn pair, all six chaos cells, the drain run and the
// 10% repair-storm pair, concatenated CSV by CSV. The synthetic-row
// goldens pin only the schemas; this one catches any change in how an
// episode is built, fed, faulted or folded. Every quick scenario runs
// the sequential search, whose incumbents do not depend on the host's
// speed as long as the per-solve budget is not hit — which the race
// detector's slowdown does, hence the build tag.
func TestQuickStudiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick study")
	}
	got := ChurnCSV(ChurnStudy(quickChurnOptions())) +
		ChaosCSV(ChaosStudy(quickChaosOptions())) +
		DrainCSV(RunDrain(quickDrainOptions())) +
		RepairStormCSV(RepairStormStudy(quickRepairStormOptions(0.10)))
	checkGolden(t, "quick_studies.csv.golden", got)
}
