package repro

import (
	"os"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestREADMEMetricFamilies keeps README's serving-metrics table
// complete: every family sr-serve and sr-router register has a row
// "| `name` | type |", per-backend series written once as _<i>.
func TestREADMEMetricFamilies(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := trace.NewMetrics()
	trace.RegisterBuildInfo(reg, trace.BuildVersion, "serve")
	serve.NewMetrics(reg)
	router.NewMetrics(reg, 1)
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(text.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[1] != "TYPE" {
			continue
		}
		families++
		name, typ := fields[2], fields[3]
		if strings.HasPrefix(name, "sr_router_backend_") {
			name = strings.TrimSuffix(name, "_0") + "_<i>"
		}
		if row := "| `" + name + "` | " + typ + " |"; !strings.Contains(string(readme), row) {
			t.Errorf("README.md has no serving-metrics row %q", row)
		}
	}
	if families < 40 {
		t.Fatalf("found %d registered families, want the 40 sr-serve and sr-router register", families)
	}
}
