package scenario

import (
	"bytes"
	"encoding/json"
)

// InvalidFixtures returns the decodable invalid documents of this
// package's tests, for the external check-agreement test.
func InvalidFixtures() []*File {
	var out []*File
	for _, src := range append(append([]string(nil), loadErrorCases...), buildTraceErrorCases...) {
		var f File
		dec := json.NewDecoder(bytes.NewReader([]byte(src)))
		dec.DisallowUnknownFields()
		if dec.Decode(&f) == nil {
			out = append(out, &f)
		}
	}
	for _, tc := range floorplanErrorCases {
		f := fpFile(uniformDie(40), uniformDie(40))
		tc.mut(f)
		out = append(out, f)
	}
	for i := range presetGeometryOverrides {
		out = append(out, &presetGeometryOverrides[i])
	}
	for i := range presetErrorCases {
		out = append(out, &presetErrorCases[i].file)
	}
	return out
}
