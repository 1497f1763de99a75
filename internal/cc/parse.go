package cc

import (
	"fmt"
)

// TypeKind classifies mini-C types.
type TypeKind int

const (
	TyVoid TypeKind = iota
	TyInt           // integer of Size bytes, Signed or not
	TyPtr
	TyArray
	TyStruct
	TyFunc
)

// Type describes a mini-C type. Types are structurally compared except
// structs, which compare by identity.
type Type struct {
	Kind   TypeKind
	Size   int
	Signed bool
	Elem   *Type   // Ptr / Array
	Len    int     // Array
	Fields []Field // Struct
	SName  string  // Struct tag
	Ret    *Type   // Func
	Params []*Type // Func
}

// Field is a struct member.
type Field struct {
	Name   string
	Type   *Type
	Offset int
}

var (
	tyVoid   = &Type{Kind: TyVoid}
	tyInt    = &Type{Kind: TyInt, Size: 4, Signed: true}
	tyUint   = &Type{Kind: TyInt, Size: 4, Signed: false}
	tyChar   = &Type{Kind: TyInt, Size: 1, Signed: false} // plain char is unsigned in this dialect
	tySChar  = &Type{Kind: TyInt, Size: 1, Signed: true}
	tyShort  = &Type{Kind: TyInt, Size: 2, Signed: true}
	tyUShort = &Type{Kind: TyInt, Size: 2, Signed: false}
	tyBool   = &Type{Kind: TyInt, Size: 1, Signed: false}
)

func ptrTo(t *Type) *Type { return &Type{Kind: TyPtr, Size: 4, Elem: t} }

func (t *Type) String() string {
	switch t.Kind {
	case TyVoid:
		return "void"
	case TyInt:
		s := "u"
		if t.Signed {
			s = "i"
		}
		return fmt.Sprintf("%s%d", s, t.Size*8)
	case TyPtr:
		return t.Elem.String() + "*"
	case TyArray:
		return fmt.Sprintf("%s[%d]", t.Elem.String(), t.Len)
	case TyStruct:
		return "struct " + t.SName
	case TyFunc:
		return "func"
	}
	return "?"
}

func (t *Type) isInt() bool { return t.Kind == TyInt }
func (t *Type) isPtr() bool { return t.Kind == TyPtr }

// sizeOf returns the storage size; arrays and structs are as declared.
func (t *Type) sizeOf() int {
	switch t.Kind {
	case TyArray:
		return t.Elem.sizeOf() * t.Len
	case TyPtr, TyFunc:
		return 4
	}
	return t.Size
}

func (t *Type) alignOf() int {
	switch t.Kind {
	case TyArray:
		return t.Elem.alignOf()
	case TyStruct:
		a := 1
		for _, f := range t.Fields {
			if fa := f.Type.alignOf(); fa > a {
				a = fa
			}
		}
		return a
	case TyPtr, TyFunc:
		return 4
	}
	if t.Size == 0 {
		return 1
	}
	return t.Size
}

// NodeKind enumerates AST node kinds (expressions and statements share
// one node type for compactness).
type NodeKind int

const (
	// Expressions
	NNum NodeKind = iota
	NStr
	NVar    // resolved local/global/function reference
	NBin    // s: operator
	NUn     // s: operator (! ~ - * &)
	NAssign // s: "=" or compound op
	NCond   // ?:
	NCall   // lhs: callee expr, args: list
	NIndex  // lhs[rhs]
	NField  // lhs.s (after -> normalization)
	NCast
	NPostIncDec // s: "++" or "--"
	NPreIncDec  // s: "++" or "--"

	// Statements
	NExprStmt
	NBlock
	NIf
	NWhile
	NDoWhile
	NFor
	NSwitch
	NCase
	NDefault
	NBreak
	NContinue
	NReturn
	NDeclStmt // local variable declaration (possibly with init)
	NAsm      // raw assembly pass-through
	NEmpty
)

// Node is an AST node.
type Node struct {
	Kind NodeKind
	Line int
	Ty   *Type // expression type (set during parsing/typing)

	S    string // operator / field name / asm text / string literal
	N    int64  // numeric literal
	L, R *Node  // generic children
	Cond *Node  // if/while/for/?: condition
	Then *Node
	Else *Node
	Init *Node   // for-init
	Post *Node   // for-post
	List []*Node // block statements, call args, switch body

	Sym *Symbol // NVar: resolved symbol
}

// SymKind distinguishes storage classes.
type SymKind int

const (
	SymLocal SymKind = iota
	SymGlobal
	SymFunc
	SymParam
)

// Symbol is a declared name.
type Symbol struct {
	Name   string
	Kind   SymKind
	Ty     *Type
	Offset int    // locals/params: frame offset (negative from fp)
	Global string // globals/functions: assembly label
}

// Func is a parsed function definition.
type Func struct {
	Name   string
	Ty     *Type // TyFunc
	Params []*Symbol
	Body   *Node
	Locals []*Symbol // all locals incl. params, for frame layout
	Line   int
}

// GlobalVar is a parsed global definition.
type GlobalVar struct {
	Sym    *Symbol
	Init   *Node   // scalar initializer expression (constant), or nil
	Vals   []*Node // array/struct initializer list, or nil
	Str    string  // string initializer for char arrays
	HasStr bool
	Line   int
}

// Unit is a parsed translation unit.
type Unit struct {
	Funcs   []*Func
	Globals []*GlobalVar
	strs    []string // interned string literals
}

type parser struct {
	toks []token
	pos  int

	structs    map[string]*Type
	typedefs   map[string]*Type
	globals    map[string]*Symbol
	locals     []map[string]*Symbol // scope stack
	curFn      *Func
	lastExtern bool // the last parseBaseType saw "extern"

	unit *Unit
}

// Parse compiles source text into an AST unit.
func Parse(src string) (*Unit, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:     toks,
		structs:  map[string]*Type{},
		typedefs: builtinTypedefs(),
		globals:  map[string]*Symbol{},
		unit:     &Unit{},
	}
	if err := p.parseUnit(); err != nil {
		return nil, err
	}
	return p.unit, nil
}

func builtinTypedefs() map[string]*Type {
	return map[string]*Type{
		"uint8_t":   tyChar,
		"int8_t":    tySChar,
		"uint16_t":  tyUShort,
		"int16_t":   tyShort,
		"uint32_t":  tyUint,
		"int32_t":   tyInt,
		"size_t":    tyUint,
		"uintptr_t": tyUint,
		"intptr_t":  tyInt,
		"_Bool":     tyBool,
		"bool":      tyBool,
	}
}

// --- token helpers ---

func (p *parser) tok() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return &Error{p.tok().line, fmt.Sprintf(format, args...)}
}

func (p *parser) isPunct(s string) bool {
	t := p.tok()
	return t.kind == tPunct && t.s == s
}

func (p *parser) isIdent(s string) bool {
	t := p.tok()
	return t.kind == tIdent && t.s == s
}

func (p *parser) accept(s string) bool {
	if p.isPunct(s) || p.isIdent(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if !p.accept(s) {
		return p.errf("expected %q, got %q", s, p.tok())
	}
	return nil
}

// --- scopes ---

func (p *parser) pushScope() { p.locals = append(p.locals, map[string]*Symbol{}) }
func (p *parser) popScope()  { p.locals = p.locals[:len(p.locals)-1] }

func (p *parser) lookup(name string) *Symbol {
	for i := len(p.locals) - 1; i >= 0; i-- {
		if s, ok := p.locals[i][name]; ok {
			return s
		}
	}
	return p.globals[name]
}

func (p *parser) declareLocal(name string, ty *Type) (*Symbol, error) {
	scope := p.locals[len(p.locals)-1]
	if _, dup := scope[name]; dup {
		return nil, p.errf("redeclaration of %q", name)
	}
	s := &Symbol{Name: name, Kind: SymLocal, Ty: ty}
	scope[name] = s
	p.curFn.Locals = append(p.curFn.Locals, s)
	return s, nil
}

// --- type parsing ---

var typeWords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"unsigned": true, "signed": true, "struct": true, "const": true,
	"volatile": true, "static": true, "extern": true, "register": true,
	"inline": true, "union": true,
}

// startsType reports whether the current token begins a type.
func (p *parser) startsType() bool {
	t := p.tok()
	if t.kind != tIdent {
		return false
	}
	if typeWords[t.s] {
		return true
	}
	_, istd := p.typedefs[t.s]
	return istd
}

// parseBaseType parses type specifiers (without declarators). It records
// whether "extern" appeared (the caller decides whether storage is
// emitted).
func (p *parser) parseBaseType() (*Type, error) {
	p.lastExtern = false
	// Swallow qualifiers/storage classes.
	for p.isIdent("const") || p.isIdent("volatile") || p.isIdent("static") ||
		p.isIdent("extern") || p.isIdent("register") || p.isIdent("inline") {
		if p.isIdent("extern") {
			p.lastExtern = true
		}
		p.pos++
	}
	t := p.tok()
	if t.kind != tIdent {
		return nil, p.errf("expected type, got %q", t)
	}
	if td, ok := p.typedefs[t.s]; ok {
		p.pos++
		return td, nil
	}
	switch t.s {
	case "void":
		p.pos++
		return tyVoid, nil
	case "struct", "union":
		return p.parseStructType(t.s == "union")
	}
	// Combinations of signed/unsigned char/short/int/long.
	signed := true
	seenSign := false
	size := 4
	seenBase := false
	for {
		t = p.tok()
		if t.kind != tIdent {
			break
		}
		switch t.s {
		case "unsigned":
			signed, seenSign = false, true
			p.pos++
			continue
		case "signed":
			signed, seenSign = true, true
			p.pos++
			continue
		case "char":
			size, seenBase = 1, true
			p.pos++
			continue
		case "short":
			size, seenBase = 2, true
			p.pos++
			if p.isIdent("int") {
				p.pos++
			}
			continue
		case "int", "long":
			seenBase = true
			p.pos++
			continue
		}
		break
	}
	if !seenBase && !seenSign {
		return nil, p.errf("expected type, got %q", p.tok())
	}
	if size == 1 && !seenSign {
		return tyChar, nil // plain char: unsigned in this dialect
	}
	return &Type{Kind: TyInt, Size: size, Signed: signed}, nil
}

// parseStructType parses "struct tag { ... }" or "struct tag".
func (p *parser) parseStructType(isUnion bool) (*Type, error) {
	p.pos++ // struct/union keyword
	tag := ""
	if p.tok().kind == tIdent && !p.isPunct("{") {
		tag = p.next().s
	}
	if !p.isPunct("{") {
		if tag == "" {
			return nil, p.errf("anonymous struct requires a body")
		}
		st, ok := p.structs[tag]
		if !ok {
			// Forward reference: create an incomplete struct.
			st = &Type{Kind: TyStruct, SName: tag, Size: -1}
			p.structs[tag] = st
		}
		return st, nil
	}
	p.pos++ // {
	st := p.structs[tag]
	if st == nil {
		st = &Type{Kind: TyStruct, SName: tag}
		if tag != "" {
			p.structs[tag] = st
		}
	}
	st.Fields = nil
	offset := 0
	maxSize := 0
	for !p.isPunct("}") {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		for {
			name, ty, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			if ty.Kind == TyStruct && ty.Size < 0 {
				return nil, p.errf("field %q has incomplete type", name)
			}
			al := ty.alignOf()
			if !isUnion {
				offset = (offset + al - 1) / al * al
				st.Fields = append(st.Fields, Field{Name: name, Type: ty, Offset: offset})
				offset += ty.sizeOf()
			} else {
				st.Fields = append(st.Fields, Field{Name: name, Type: ty, Offset: 0})
				if s := ty.sizeOf(); s > maxSize {
					maxSize = s
				}
			}
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	p.pos++ // }
	al := st.alignOf()
	if isUnion {
		offset = maxSize
	}
	st.Size = (offset + al - 1) / al * al
	return st, nil
}

// parseDeclarator parses pointers, the name, array suffixes and function
// pointer syntax: e.g. "*name[10]" or "(*name)(int, int)".
func (p *parser) parseDeclarator(base *Type) (string, *Type, error) {
	ty := base
	for p.accept("*") {
		for p.isIdent("const") || p.isIdent("volatile") {
			p.pos++
		}
		ty = ptrTo(ty)
	}
	// Function pointer: (*name)(params) or (*name[N])(params)
	if p.isPunct("(") {
		p.pos++
		if err := p.expect("*"); err != nil {
			return "", nil, err
		}
		if p.tok().kind != tIdent {
			return "", nil, p.errf("expected function pointer name")
		}
		name := p.next().s
		var fpDims []int
		for p.accept("[") {
			if p.isPunct("]") {
				fpDims = append(fpDims, -1)
			} else {
				n, err := p.constExpr()
				if err != nil {
					return "", nil, err
				}
				fpDims = append(fpDims, int(n))
			}
			if err := p.expect("]"); err != nil {
				return "", nil, err
			}
		}
		if err := p.expect(")"); err != nil {
			return "", nil, err
		}
		if err := p.expect("("); err != nil {
			return "", nil, err
		}
		ft := &Type{Kind: TyFunc, Size: 4, Ret: ty}
		if !p.isPunct(")") {
			for {
				if p.isIdent("void") && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].s == ")" {
					p.pos++
					break
				}
				pt, err := p.parseBaseType()
				if err != nil {
					return "", nil, err
				}
				_, pty, err := p.parseDeclarator(pt)
				if err != nil {
					return "", nil, err
				}
				ft.Params = append(ft.Params, decay(pty))
				if !p.accept(",") {
					break
				}
			}
		}
		if err := p.expect(")"); err != nil {
			return "", nil, err
		}
		fty := ptrTo(ft)
		for i := len(fpDims) - 1; i >= 0; i-- {
			fty = &Type{Kind: TyArray, Elem: fty, Len: fpDims[i]}
		}
		return name, fty, nil
	}
	name := ""
	if p.tok().kind == tIdent && !typeWords[p.tok().s] {
		name = p.next().s
	}
	// Array suffixes (innermost last).
	var dims []int
	for p.accept("[") {
		if p.isPunct("]") {
			dims = append(dims, -1) // size from initializer
		} else {
			n, err := p.constExpr()
			if err != nil {
				return "", nil, err
			}
			dims = append(dims, int(n))
		}
		if err := p.expect("]"); err != nil {
			return "", nil, err
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		ty = &Type{Kind: TyArray, Elem: ty, Len: dims[i]}
	}
	return name, ty, nil
}

// decay converts array types to pointers (parameter adjustment).
func decay(t *Type) *Type {
	if t.Kind == TyArray {
		return ptrTo(t.Elem)
	}
	return t
}

// constExpr evaluates an integer constant expression at parse time.
func (p *parser) constExpr() (int64, error) {
	e, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	return p.evalConst(e)
}

func (p *parser) evalConst(e *Node) (int64, error) {
	switch e.Kind {
	case NNum:
		return e.N, nil
	case NUn:
		v, err := p.evalConst(e.L)
		if err != nil {
			return 0, err
		}
		switch e.S {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case NBin:
		a, err := p.evalConst(e.L)
		if err != nil {
			return 0, err
		}
		b, err := p.evalConst(e.R)
		if err != nil {
			return 0, err
		}
		switch e.S {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, &Error{e.Line, "division by zero in constant"}
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, &Error{e.Line, "modulo by zero in constant"}
			}
			return a % b, nil
		case "<<":
			return a << uint(b&31), nil
		case ">>":
			return a >> uint(b&31), nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		}
	case NCast:
		return p.evalConst(e.L)
	}
	return 0, &Error{e.Line, "expression is not constant"}
}
