package fabric

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// TestDecodeCampaignSpec: the spec a worker fetches is outside input. A
// valid spec round-trips exactly; one that core.Campaign.Validate rejects
// — duplicate config names would leave a worker measuring whichever
// design point it found first — or one that is not JSON is an error.
func TestDecodeCampaignSpec(t *testing.T) {
	encode := func(c core.Campaign) []byte {
		t.Helper()
		raw, err := json.Marshal(encodeCampaign(c))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	camp := core.NewCampaign([]string{"sha", "qsort"},
		[]boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}, workloads.ScaleTiny)
	camp.Sampling = sampling.Recommended()
	got, err := decodeCampaignSpec(encode(camp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, camp) {
		t.Errorf("round trip changed the campaign:\n got %+v\nwant %+v", got, camp)
	}

	mega := boom.MegaBOOM()
	mega.Name = "MediumBOOM"
	dup := core.NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM(), mega}, workloads.ScaleTiny)
	if _, err := decodeCampaignSpec(encode(dup)); err == nil || !strings.Contains(err.Error(), "duplicate config") {
		t.Errorf("duplicate config names decoded with err=%v", err)
	}
	for _, raw := range []string{`{"workloads":[],"configs":[],"scale":0}`, `{"workloads":`} {
		if _, err := decodeCampaignSpec([]byte(raw)); err == nil {
			t.Errorf("spec %s decoded without error", raw)
		}
	}
}
