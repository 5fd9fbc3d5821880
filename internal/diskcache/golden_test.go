package diskcache

import (
	"encoding/hex"
	"testing"
)

// TestEncodeGolden pins the artifact encoding byte for byte. The same bytes
// are a disk record and the body of the fleet's GET /artifact/{key}, so a
// change here breaks both stores written by older builds and mixed-version
// fleets. The hex was recorded from the encoder and must not be regenerated
// to make a change pass.
func TestEncodeGolden(t *testing.T) {
	cases := []struct {
		name string
		key  []uint64
		a    *Artifact
		want string
	}{
		{
			name: "sections",
			key:  []uint64{1, 2, 3},
			a: &Artifact{
				Code: []byte{0x48, 0x89, 0xf8, 0x48, 0x01, 0xf0, 0xc3},
				IR:   "define i64 @f(i64 %a, i64 %b)",
				Meta: []byte(`{"decoded":7,"emitted":3}`),
			},
			want: "44425257415254318856ae3811af086a35d8802116a76e83543393b83a79557c070000001d000000190000004889f84801f0c3646566696e6520693634204066286936342025612c20693634202562297b226465636f646564223a372c22656d6974746564223a337d",
		},
		{
			name: "empty",
			key:  []uint64{0xdeadbeef},
			a:    &Artifact{},
			want: "4442525741525431259845b4c80f8065e6e8f28174775ea50ecc80a6a08b63e8000000000000000000000000",
		},
	}
	for _, c := range cases {
		got := hex.EncodeToString(Encode(keyOf(c.key...), c.a))
		if got != c.want {
			t.Errorf("%s: Encode =\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}
