package report

import (
	"encoding/json"
	"testing"
)

// FuzzReportDecode feeds arbitrary bytes through the report reader's
// decode path (json.Unmarshal, then Validate): neither may panic, and
// a report that validates must re-encode.
func FuzzReportDecode(f *testing.F) {
	b, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	for _, tc := range rejections {
		r := sample()
		tc.mut(r)
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Report
		if json.Unmarshal(b, &r) != nil || r.Validate() != nil {
			return
		}
		if _, err := r.Encode(); err != nil {
			t.Fatalf("valid report does not encode: %v", err)
		}
	})
}
