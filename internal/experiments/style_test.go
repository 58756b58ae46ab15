package experiments

import "testing"

func TestRunStyleSmall(t *testing.T) {
	res, err := RunStyle(SmallStyleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Strength 0 reduces to the Theorem 2 regime: near-zero skew.
	if res.Rows[0].LSISkew > 0.1 {
		t.Fatalf("style-free skew %v", res.Rows[0].LSISkew)
	}
	// Degradation is monotone (weakly) in style strength, and a strong
	// cross-topic style visibly erodes separation.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].LSISkew < res.Rows[i-1].LSISkew-0.05 {
			t.Fatalf("skew not increasing with style strength: %v -> %v",
				res.Rows[i-1].LSISkew, res.Rows[i].LSISkew)
		}
	}
	if res.Rows[len(res.Rows)-1].LSISkew < res.Rows[0].LSISkew+0.1 {
		t.Fatalf("strong style barely degraded skew: %v vs %v",
			res.Rows[len(res.Rows)-1].LSISkew, res.Rows[0].LSISkew)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
	// A seeded run is reproducible: the style rows walk their targets in
	// one order on every build.
	again, err := RunStyle(SmallStyleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Table(), res.Table(); got != want {
		t.Fatalf("second run differs:\n%s\nfirst run:\n%s", got, want)
	}
}
