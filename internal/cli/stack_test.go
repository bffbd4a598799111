package cli

import "testing"

func TestStackEnv(t *testing.T) {
	for _, tc := range []struct {
		name, stack, err string
	}{
		{name: "nova", stack: "nova"},
		{name: "nvstream", stack: "nvstream"},
		{name: "ext4", err: `unknown stack "ext4" (want nova or nvstream)`},
	} {
		env, err := StackEnv(tc.name)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("StackEnv(%q) error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("StackEnv(%q): %v", tc.name, err)
		}
		if got := env.NewStack().Name(); got != tc.stack {
			t.Errorf("StackEnv(%q) builds stack %q", tc.name, got)
		}
	}
}
