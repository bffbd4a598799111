package cli

import (
	"fmt"

	"pmemsched/internal/core"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/stack/nvstream"
)

// StackEnv returns the default run-engine environment on the named
// storage stack, as every -stack flag selects it: "nova" or
// "nvstream".
func StackEnv(name string) (core.Env, error) {
	env := core.DefaultEnv()
	switch name {
	case "nova":
		env.NewStack = func() stack.Instance { return nova.Default() }
	case "nvstream":
		env.NewStack = func() stack.Instance { return nvstream.Default() }
	default:
		return env, fmt.Errorf("unknown stack %q (want nova or nvstream)", name)
	}
	return env, nil
}
