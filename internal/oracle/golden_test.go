package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenImages holds the sha256 of Freeze().Encode() for every
// buildSeeded fixture (n = 40, ε = 0.25), keyed by seed and mode. The
// determinism gates compare schedules within one commit; these digests
// pin the bytes across commits, so a refactor that moves any image byte
// fails here. Update a digest only with a change that means to alter
// the image, and say so where the change is recorded.
var goldenImages = map[string]string{
	"seed0/exact":  "089619411c49a48e2f00312b7e0afd61b2181bea58693b43193acd557964fe20",
	"seed0/portal": "ad3e15f6803bd620b4414e068509626a0fd5e377d3c7ef31d899847c573b060d",
	"seed1/exact":  "8c3d77aa20bd429558fc555f6a7b291ccd4e3963e0c97d1fa1af0c9191aa2a44",
	"seed1/portal": "e0ca940da0ca15c865754c03698469ed63ed231c06e96f11fce0f2612628c9e1",
	"seed2/exact":  "e50fd7173641f9501d6d5243491b26cd6a0bf10badb9f097a7543a9bf533222d",
	"seed2/portal": "f192ee3a26413298de0aedcec87eb46e355dab400fdd62a239366b4323076dbe",
	"seed3/exact":  "d530ba9b12f7ece2e07de7fcacd4f0dd372b3b4f71bc85ddefc914f05a351260",
	"seed3/portal": "df78cd540f30917b15ed0006b795f5ef6d300a2354cf9695aa74fda16dcbf7da",
	"seed4/exact":  "5a6b11af57e95ed67c24be1aba26535ee94043a1ddf94c5a21481813f72f931f",
	"seed4/portal": "45ce1f0f3c35bd8d4b9c0ec25a3f19bf99ab9f9645c8f20dc39489302095a2a1",
	"seed5/exact":  "e953b0a9762cb2a54809d71c0280ed7f32d624a20e63d4d24b4bf0e23f6f4182",
	"seed5/portal": "4923bd3ae2c73affb00e20f64a597adc81c1a2d5b13bc4306cd75c27532e2963",
}

func TestImageBytesGolden(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, m := range laneModes {
			name := fmt.Sprintf("seed%d/%s", seed, m.name)
			_, o := buildSeeded(t, seed, 40, m.mode)
			fl, err := o.Freeze()
			if err != nil {
				t.Fatalf("%s: freeze: %v", name, err)
			}
			sum := sha256.Sum256(fl.Encode())
			got := hex.EncodeToString(sum[:])
			if want := goldenImages[name]; got != want {
				t.Errorf("%s: image sha256 %s, want %s", name, got, want)
			}
		}
	}
}
