// Package fingerprint defines an analyzer that cross-checks the run
// engine's cache-key functions (internal/core/fingerprint.go) against
// the struct definitions they serialize. The cache contract is that a
// run key covers every Result-affecting field of workflow.Spec,
// workflow.ComponentSpec and core.Deployment; a field added later but
// not folded into the hash silently serves stale cached Results. This
// analyzer turns that silent staleness into a lint error at the moment
// the field is added.
package fingerprint

import (
	"go/ast"
	"go/types"
	"regexp"

	"pmemsched/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fingerprint",
	Doc: `require fingerprint functions to reference every exported field

In internal/core, every function whose name contains "fingerprint" or
ends in "Key" is treated as a cache-key writer. For each of its
parameters of (module-local) struct type the analyzer demands that the
function body reference every exported field of the struct — directly,
or through a range variable drawn from one of its slice fields. Passing
the whole struct on to another function (or *p, for a pointer
parameter p) counts as delegation and is checked at the callee instead. A field that genuinely must not affect
the key can be excluded with //pmemlint:ignore fingerprint <reason> on
the function declaration's line.`,
	Run: run,
}

// scopeRE: cache keys live in the run engine package only.
var scopeRE = regexp.MustCompile(`internal/core$`)

// nameRE picks out the cache-key writer functions by convention:
// writeSpecFingerprint, writeComponentFingerprint, runKey, classifyKey,
// and whatever future keys follow the same naming.
var nameRE = regexp.MustCompile(`(?i)fingerprint|Key$`)

func run(pass *analysis.Pass) error {
	if !scopeRE.MatchString(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil || !nameRE.MatchString(fd.Name.Name) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			named, st := structType(obj.Type())
			if st == nil {
				continue
			}
			if delegated(pass, fd.Body, obj) {
				continue
			}
			reportMissing(pass, fd, obj, named, st)
		}
	}
}

// reportMissing checks one struct-typed parameter, following range
// variables into slice-of-struct fields so that nested compositions
// (ComponentSpec.Objects → ObjectSpec) are covered too.
func reportMissing(pass *analysis.Pass, fd *ast.FuncDecl, root *types.Var, rootNamed *types.Named, rootSt *types.Struct) {
	// tracked maps a variable to the named struct whose coverage it
	// witnesses: the parameter itself, plus every range value variable
	// drawn from a tracked variable's field.
	type trackee struct {
		named *types.Named
		st    *types.Struct
	}
	tracked := map[types.Object]trackee{root: {rootNamed, rootSt}}
	// referenced[named type][field name]: selector seen in the body.
	referenced := make(map[*types.Named]map[string]bool)

	// Iterate to a fixed point: a range statement may precede or follow
	// the selectors it enables, and nesting can chain (struct → slice →
	// struct → slice). Two passes per nesting level; depth is tiny.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				base, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				tr, ok := tracked[pass.TypesInfo.Uses[base]]
				if !ok {
					return true
				}
				if referenced[tr.named] == nil {
					referenced[tr.named] = make(map[string]bool)
				}
				if !referenced[tr.named][n.Sel.Name] {
					referenced[tr.named][n.Sel.Name] = true
					changed = true
				}
			case *ast.RangeStmt:
				// for _, elem := range tracked.SliceField { ... elem.X ... }
				sel, ok := n.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if _, ok := tracked[pass.TypesInfo.Uses[base]]; !ok {
					return true
				}
				val, ok := n.Value.(*ast.Ident)
				if !ok {
					return true
				}
				valObj := pass.TypesInfo.Defs[val]
				if valObj == nil {
					return true
				}
				if named, st := structType(valObj.Type()); st != nil {
					if _, seen := tracked[valObj]; !seen {
						tracked[valObj] = trackee{named, st}
						changed = true
					}
				}
			}
			return true
		})
	}

	for _, tr := range tracked {
		for i := 0; i < tr.st.NumFields(); i++ {
			f := tr.st.Field(i)
			if !f.Exported() || referenced[tr.named][f.Name()] {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s does not fold exported field %s.%s into the cache key; hash it (or suppress with //pmemlint:ignore fingerprint <reason>) so cached Results cannot go stale", fd.Name.Name, qualified(tr.named), f.Name())
		}
	}
}

// delegated reports whether the parameter is passed whole as an
// argument to some call, directly or dereferenced — coverage is then
// the callee's obligation.
func delegated(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		for _, arg := range call.Args {
			if star, ok := arg.(*ast.StarExpr); ok {
				arg = star.X // *p hands over the whole pointee
			}
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// structType unwraps pointers and returns the named struct type behind
// t, or nil if t is not a (pointer to a) named struct.
func structType(t types.Type) (*types.Named, *types.Struct) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

func qualified(named *types.Named) string {
	if pkg := named.Obj().Pkg(); pkg != nil {
		return pkg.Name() + "." + named.Obj().Name()
	}
	return named.Obj().Name()
}
