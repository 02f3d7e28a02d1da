// Package unsafeview polices the zero-copy image views. DecodeFlat
// reinterprets one owned byte buffer as typed section slices with
// unsafe.Slice, which is safe only under discipline the type system
// cannot see, so this pass enforces it:
//
//   - validation dominance: every unsafe.Slice view over a buffer must
//     be dominated by a bounds check of that buffer (a comparison
//     involving len(buf), directly or through an in-package helper
//     whose interprocedural summary validates the parameter) and by an
//     alignment check (a uintptr(unsafe.Pointer(...))%k test of the
//     same buffer, directly or through an in-package helper whose body
//     performs one). A view carved out of an unchecked buffer turns a
//     short or misaligned image into out-of-bounds typed reads.
//
//   - read-only views: unsafe-derived slices — results of unsafe.Slice
//     or of in-package functions that return a slice and use unsafe,
//     and any struct field such a value is ever assigned to — are
//     read-only package-wide. Writing through one mutates the frozen
//     image every concurrent reader trusts. No annotation grants an
//     exception. The only exemption is ownership: a function that
//     assigns the field from a plain make() it performed itself owns a
//     fresh heap array, not a view of the mapped image, and may write
//     that field — this is how the builder, the copying decode fallback
//     and the derived query layouts stay clean.
//
//   - escape symmetry: if a view over a buffer escapes the
//     constructing function (returned, or stored into a field or
//     package variable), the backing buffer must escape too. A view
//     whose backing is only a local keeps memory alive invisibly at
//     best; with a future arena or mmap backing it dangles.
//
// Test files are exempt.
package unsafeview

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"pathsep/internal/analyzers/ssaflow"
)

// Analyzer is the unsafeview pass.
var Analyzer = &analysis.Analyzer{
	Name:     "unsafeview",
	Doc:      "unsafe.Slice views need dominating bounds+alignment validation, stay read-only, and may not outlive their backing buffer",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ssaflow.Analyzer},
	Run:      run,
}

// usesUnsafe reports whether node references the unsafe package.
func usesUnsafe(info *types.Info, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if pn, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg && pn.Imported().Path() == "unsafe" {
				found = true
			}
		}
		return true
	})
	return found
}

// isUnsafeSlice matches calls to the unsafe.Slice builtin.
func isUnsafeSlice(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Slice" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, isPkg := info.ObjectOf(id).(*types.PkgName)
	return isPkg && pn.Imported().Path() == "unsafe"
}

// backingObject peels the pointer argument of unsafe.Slice —
// (*T)(unsafe.Pointer(&buf[off])) — down to buf.
func backingObject(info *types.Info, e ast.Expr) types.Object {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.CallExpr:
			// A conversion (unsafe.Pointer(p), (*T)(p)) forwards its operand.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return nil
		case *ast.UnaryExpr:
			e = x.X
		default:
			return ssaflow.BaseObject(info, e)
		}
	}
}

// condLenChecks reports objects whose len() participates in a
// comparison inside cond.
func condLenChecks(info *types.Info, cond ast.Expr, out map[types.Object]bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !be.Op.IsOperator() {
			return true
		}
		switch be.Op.String() {
		case "==", "!=", "<", "<=", ">", ">=":
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "len" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) == 1 {
						if obj := ssaflow.BaseObject(info, call.Args[0]); obj != nil {
							out[obj] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
}

// condAlignChecks reports objects probed by a uintptr(...)%k test
// inside cond.
func condAlignChecks(info *types.Info, cond ast.Expr, out map[types.Object]bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op.String() != "%" {
			return true
		}
		if !usesUnsafe(info, be.X) {
			return true
		}
		collectMentioned(info, be.X, out)
		return true
	})
}

// collectMentioned adds every variable mentioned in e to out.
func collectMentioned(info *types.Info, e ast.Expr, out map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, isVar := info.ObjectOf(id).(*types.Var); isVar {
				out[v] = true
			}
		}
		return true
	})
}

// terminates reports whether the statement list ends control flow.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// pkg-wide facts computed by the prepass.
type facts struct {
	pass       *analysis.Pass
	res        *ssaflow.Result
	origins    map[*types.Func]bool // in-package slice factories using unsafe
	aligners   map[*types.Func]bool // in-package funcs performing an alignment probe
	viewFields map[types.Object]bool
}

// viewOrigin reports whether e constructs (or fetches) an unsafe-derived
// view, and for direct unsafe.Slice calls returns the backing object.
func (fx *facts) viewOrigin(e ast.Expr) (backing types.Object, isView bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	info := fx.pass.TypesInfo
	if isUnsafeSlice(info, call) && len(call.Args) == 2 {
		return backingObject(info, call.Args[0]), true
	}
	if fn := ssaflow.CalleeFunc(info, call); fn != nil && fx.origins[fn] {
		return nil, true
	}
	return nil, false
}

func run(pass *analysis.Pass) (interface{}, error) {
	res := pass.ResultOf[ssaflow.Analyzer].(*ssaflow.Result)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := pass.TypesInfo

	fx := &facts{
		pass:       pass,
		res:        res,
		origins:    map[*types.Func]bool{},
		aligners:   map[*types.Func]bool{},
		viewFields: map[types.Object]bool{},
	}

	// Prepass 1: classify in-package functions. A slice-returning
	// function whose body touches unsafe is a view factory; any function
	// containing a modulo test of an unsafe.Pointer is an alignment
	// checker usable from a caller's condition.
	for fn, s := range res.Summaries {
		if s.Decl == nil || s.Decl.Body == nil {
			continue
		}
		if !usesUnsafe(info, s.Decl.Body) {
			continue
		}
		sig := fn.Type().(*types.Signature)
		for j := 0; j < sig.Results().Len(); j++ {
			if _, isSlice := sig.Results().At(j).Type().Underlying().(*types.Slice); isSlice {
				fx.origins[fn] = true
			}
		}
		ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && be.Op.String() == "%" && usesUnsafe(info, be.X) {
				fx.aligners[fn] = true
			}
			return true
		})
	}

	// Prepass 2: fields that ever hold a view anywhere in the package.
	ins.Preorder([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node) {
		as := n.(*ast.AssignStmt)
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i := range as.Lhs {
			if _, isView := fx.viewOrigin(as.Rhs[i]); !isView {
				continue
			}
			if sel, ok := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr); ok {
				if obj := info.ObjectOf(sel.Sel); obj != nil {
					fx.viewFields[obj] = true
				}
			}
		}
	})

	for _, fn := range res.Funcs {
		file := pass.Fset.Position(fn.Node.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		fd, ok := fn.Node.(*ast.FuncDecl)
		if !ok {
			continue
		}
		checkFunc(fx, fd)
	}
	return nil, nil
}

// vstate tracks, along one path, which buffers have had their length
// and alignment validated.
type vstate struct {
	ln, al map[types.Object]bool
}

func (v *vstate) clone() *vstate {
	c := &vstate{ln: map[types.Object]bool{}, al: map[types.Object]bool{}}
	for k := range v.ln {
		c.ln[k] = true
	}
	for k := range v.al {
		c.al[k] = true
	}
	return c
}

// checker walks one function.
type checker struct {
	fx *facts
	fd *ast.FuncDecl
	// makeOwned: fields and locals this function assigned from a plain
	// make() — writes through them are writes into fresh heap memory.
	makeOwned map[types.Object]bool
	// viewLocals: locals holding a view, mapped to the backing object
	// (nil when unknown, e.g. factory results).
	viewLocals map[types.Object]types.Object
	// escape bookkeeping for the symmetry check.
	viewBacking map[types.Object]ast.Expr // backing -> first view construction site
	viewEscaped map[types.Object]bool     // backing -> some view over it escaped
	objEscaped  map[types.Object]bool     // object itself escaped (stored/returned)
}

func checkFunc(fx *facts, fd *ast.FuncDecl) {
	c := &checker{
		fx:          fx,
		fd:          fd,
		makeOwned:   map[types.Object]bool{},
		viewLocals:  map[types.Object]types.Object{},
		viewBacking: map[types.Object]ast.Expr{},
		viewEscaped: map[types.Object]bool{},
		objEscaped:  map[types.Object]bool{},
	}
	st := &vstate{ln: map[types.Object]bool{}, al: map[types.Object]bool{}}
	c.stmts(st, fd.Body.List)

	// Escape symmetry: some view over B escaped, but B itself did not.
	for backing, site := range c.viewBacking {
		if c.viewEscaped[backing] && !c.objEscaped[backing] {
			c.fx.pass.Reportf(site.Pos(),
				"unsafe view over %s escapes %s but %s itself does not; retain the backing buffer alongside the view",
				backing.Name(), fd.Name.Name, backing.Name())
		}
	}
}

func (c *checker) info() *types.Info { return c.fx.pass.TypesInfo }

// condValidates records what cond proves: direct len/alignment tests,
// and calls to in-package validators and alignment checkers.
func (c *checker) condValidates(cond ast.Expr, st *vstate) {
	info := c.info()
	condLenChecks(info, cond, st.ln)
	condAlignChecks(info, cond, st.al)
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.callValidates(call, st)
		return true
	})
}

// callValidates folds an in-package callee's summary into the state:
// a parameter the callee length-validates counts as a bounds check, a
// callee performing an alignment probe counts as an alignment check
// for every argument it receives.
func (c *checker) callValidates(call *ast.CallExpr, st *vstate) {
	info := c.info()
	fn := ssaflow.CalleeFunc(info, call)
	if fn == nil {
		return
	}
	s := c.fx.res.SummaryOf(fn)
	if s == nil {
		return
	}
	for i, arg := range call.Args {
		obj := ssaflow.BaseObject(info, arg)
		if obj == nil {
			continue
		}
		if s.Validates[i] {
			st.ln[obj] = true
		}
		if c.fx.aligners[fn] {
			st.al[obj] = true
		}
	}
}

// checkViews scans a non-control statement for unsafe.Slice
// constructions and validates them against st.
func (c *checker) checkViews(n ast.Node, st *vstate) {
	info := c.info()
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || !isUnsafeSlice(info, call) || len(call.Args) != 2 {
			return true
		}
		backing := backingObject(info, call.Args[0])
		if backing == nil {
			return true
		}
		if _, seen := c.viewBacking[backing]; !seen {
			c.viewBacking[backing] = call
		}
		if !st.ln[backing] {
			c.fx.pass.Reportf(call.Pos(),
				"unsafe view of %s constructed without a dominating bounds check of len(%s)",
				backing.Name(), backing.Name())
			st.ln[backing] = true // once per buffer per function
		}
		if !st.al[backing] {
			c.fx.pass.Reportf(call.Pos(),
				"unsafe view of %s constructed without a dominating alignment check of %s",
				backing.Name(), backing.Name())
			st.al[backing] = true
		}
		return true
	})
}

// checkWrite resolves the base of an index write — peeling selectors
// and derefs, so f.recs[0].a = x is recognized as a write through
// f.recs — and reports it if that base is an unsafe-derived view this
// function may not mutate.
func (c *checker) checkWrite(lhs ast.Expr) {
	info := c.info()
	e := ast.Unparen(lhs)
	var ie *ast.IndexExpr
peel:
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			ie = x
			break peel
		default:
			return
		}
	}
	base := ast.Unparen(ie.X)
	var obj types.Object
	switch b := base.(type) {
	case *ast.Ident:
		obj = info.ObjectOf(b)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(b.Sel)
	default:
		return
	}
	if obj == nil || c.makeOwned[obj] {
		return
	}
	_, isViewLocal := c.viewLocals[obj]
	if !isViewLocal && !c.fx.viewFields[obj] {
		return
	}
	c.fx.pass.Reportf(lhs.Pos(),
		"write through unsafe-derived view %s; views of the frozen image are read-only (build derived data in a plain make() array instead)",
		obj.Name())
}

// isMakeCall matches plain make(...) allocations.
func isMakeCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// assign tracks view/make provenance and escapes for one binding.
func (c *checker) assign(lhs, rhs ast.Expr) {
	info := c.info()
	backing, isView := c.fx.viewOrigin(rhs)

	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(l)
		if obj == nil {
			return
		}
		delete(c.makeOwned, obj)
		delete(c.viewLocals, obj)
		if isView {
			c.viewLocals[obj] = backing
		} else if isMakeCall(info, rhs) {
			c.makeOwned[obj] = true
		} else {
			c.noteCompositeMakes(rhs)
		}
	case *ast.SelectorExpr:
		// A selector lvalue may still be a write through a view one
		// level down (f.recs[0].a = x); checkWrite peels and decides.
		c.checkWrite(lhs)
		obj := info.ObjectOf(l.Sel)
		if obj == nil {
			return
		}
		if isView {
			// Storing a view into a field publishes it.
			if backing != nil {
				c.viewEscaped[backing] = true
			}
		} else if isMakeCall(info, rhs) {
			c.makeOwned[obj] = true
		}
		// The receiver/struct the field lives on escapes nothing here;
		// but a view-carrying local stored into a field escapes.
		c.noteEscapes(rhs)
	default:
		c.checkWrite(lhs)
		c.noteEscapes(rhs)
	}
}

// noteCompositeMakes credits struct-literal fields initialized with a
// plain make() as make-owned: `f := &Flat{entryOff: make(...)}`
// followed by f.entryOff[i] = x is the builder filling its own fresh
// array, not a write through an image view.
func (c *checker) noteCompositeMakes(e ast.Expr) {
	info := c.info()
	ast.Inspect(e, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !isMakeCall(info, kv.Value) {
			return true
		}
		if obj := info.ObjectOf(key); obj != nil {
			c.makeOwned[obj] = true
		}
		return true
	})
}

// noteEscapes marks objects (and views over them) mentioned by e as
// escaping through a store or return.
func (c *checker) noteEscapes(e ast.Expr) {
	if e == nil {
		return
	}
	info := c.info()
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return true
		}
		c.objEscaped[obj] = true
		if backing, ok := c.viewLocals[obj]; ok && backing != nil {
			c.viewEscaped[backing] = true
		}
		return true
	})
}

func (c *checker) stmts(st *vstate, list []ast.Stmt) {
	for _, s := range list {
		c.stmt(st, s)
	}
}

func (c *checker) stmt(st *vstate, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(st, s.Init)
		}
		c.checkViews(s.Cond, st)
		then := st.clone()
		c.condValidates(s.Cond, then)
		c.stmts(then, s.Body.List)
		if s.Else != nil {
			els := st.clone()
			c.stmt(els, s.Else)
		}
		// Guard style: `if <fails validation> { return }` proves the
		// condition's checks for the code after the if.
		if terminates(s.Body.List) {
			c.condValidates(s.Cond, st)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(st, s.Init)
		}
		if s.Cond != nil {
			c.checkViews(s.Cond, st)
		}
		body := st.clone()
		c.stmts(body, s.Body.List)
		if s.Post != nil {
			c.stmt(body, s.Post)
		}
	case *ast.RangeStmt:
		c.checkViews(s.X, st)
		body := st.clone()
		c.stmts(body, s.Body.List)
	case *ast.BlockStmt:
		c.stmts(st, s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(st, s.Init)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				b := st.clone()
				c.stmts(b, cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				b := st.clone()
				c.stmts(b, cl.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				b := st.clone()
				if cl.Comm != nil {
					c.stmt(b, cl.Comm)
				}
				c.stmts(b, cl.Body)
			}
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.checkViews(r, st)
			ast.Inspect(r, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					c.callValidates(call, st)
				}
				return true
			})
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				c.assign(s.Lhs[i], s.Rhs[i])
			}
		} else {
			for _, l := range s.Lhs {
				c.checkWrite(l)
			}
		}
	case *ast.IncDecStmt:
		c.checkWrite(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							c.checkViews(vs.Values[i], st)
							c.assign(name, vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		c.checkViews(s.X, st)
		ast.Inspect(s.X, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.callValidates(call, st)
				c.checkCopyInto(call)
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.checkViews(r, st)
			c.noteEscapes(r)
		}
	case *ast.DeferStmt:
		c.checkViews(s.Call, st)
	case *ast.GoStmt:
		c.checkViews(s.Call, st)
		c.noteEscapes(s.Call)
	case *ast.SendStmt:
		c.checkViews(s.Value, st)
		c.noteEscapes(s.Value)
	case *ast.LabeledStmt:
		c.stmt(st, s.Stmt)
	}
}

// checkCopyInto flags copy(view, ...) — a bulk write through a view.
func (c *checker) checkCopyInto(call *ast.CallExpr) {
	info := c.info()
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" || len(call.Args) != 2 {
		return
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	dst := ast.Unparen(call.Args[0])
	var obj types.Object
	switch d := dst.(type) {
	case *ast.Ident:
		obj = info.ObjectOf(d)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(d.Sel)
	default:
		return
	}
	if obj == nil || c.makeOwned[obj] {
		return
	}
	_, isViewLocal := c.viewLocals[obj]
	if !isViewLocal && !c.fx.viewFields[obj] {
		return
	}
	c.fx.pass.Reportf(call.Pos(),
		"copy into unsafe-derived view %s; views of the frozen image are read-only",
		obj.Name())
}
