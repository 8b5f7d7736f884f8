package chaos

import "testing"

// FuzzParseProfile: ParseProfile never panics, and every spec it
// accepts round-trips through Profile.String ("parseable by
// ParseProfile") to an equal profile, Name excepted (a custom spec
// names the profile after itself). Seeds: testdata/fuzz/FuzzParseProfile.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		s := p.String()
		back, err := ParseProfile(s)
		if err != nil {
			t.Fatalf("ParseProfile(%q) = %+v renders %q, which does not parse: %v", spec, p, s, err)
		}
		p.Name, back.Name = "", ""
		if back != p {
			t.Fatalf("ParseProfile(%q) round-trips through %q with drift:\n  %+v\n  %+v", spec, s, p, back)
		}
	})
}
