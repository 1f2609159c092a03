//! The HILTI intermediate representation.
//!
//! Programs are modules of functions; functions are lists of labeled basic
//! blocks; blocks are sequences of register-style instructions of the form
//! `<target> = <mnemonic> <op1> <op2> <op3>` plus one terminator (§3.2
//! "Syntax"). Mnemonics group by prefix — `list.append`, `set.insert`,
//! `classifier.get` — exactly as in Table 1 of the paper; [`GROUPS`]
//! reproduces that table and a test asserts the instruction count is in the
//! paper's "about 200" ballpark.
//!
//! The representation is deliberately simple — "we deliberately limit
//! syntactic flexibility to better support compiler transformations because
//! HILTI mainly acts as compiler *target*".
//!
//! Each row of the `opcodes!` table is the only statement of an opcode's
//! static facts:
//!
//! ```text
//! IntDiv = "int.div" [Traps fold] (Int, Int) -> Int,
//! StructGet = "struct.get" [Effect] ids[1],
//! ```
//!
//! - the variant and its mnemonic;
//! - its [`OpClass`] variant (`Total`, `Typed`, `Traps` or `Effect`), then
//!   `fold` if the constant folder evaluates it;
//! - optionally its value-operand and result [`Kind`]s, which the checker
//!   enforces where operand types are static (`Int` is `int<64>`, `List`
//!   `list<any>`, `Map` `map<any, any>`, any other name a [`Type`]
//!   variant; a container kind admits any element types);
//! - optionally `ids[..]`, the operand positions the parser reads as
//!   identifiers rather than variables.
//!
//! [`Opcode::class`], [`Opcode::folds`], [`Opcode::signature`] and
//! [`Opcode::ident_positions`] are generated from the rows, and so is
//! [`sig`], each signature as a type, from which `crate::ops` reads the
//! operands of its typed rows. A test in this module runs every pure row
//! through `ops::eval` to keep its class honest.

use std::collections::HashMap;
use std::fmt;

use crate::types::Type;
use hilti_rt::addr::{Addr, Network, Port};
use hilti_rt::overlay::OverlayType;
use hilti_rt::time::{Interval, Time};

/// A compile-time constant operand.
#[derive(Clone, Debug, PartialEq)]
pub enum Const {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(String),
    BytesLit(Vec<u8>),
    Addr(Addr),
    Net(Network),
    Port(Port),
    Time(Time),
    Interval(Interval),
    /// Reference to an enum label: (enum type name, label index).
    EnumLit(String, i64),
    /// A block label (jump targets, handler labels).
    Label(String),
    /// An identifier: function name, hook name, struct field, overlay
    /// field, exception kind, host-function name.
    Ident(String),
    /// A type operand, e.g. for `new`.
    TypeRef(Type),
    /// Regular-expression pattern set for `regexp.new`.
    Patterns(Vec<String>),
    /// Constant tuple.
    Tuple(Vec<Const>),
}

/// An instruction operand.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    Const(Const),
    /// A named variable; resolved against locals first, then module
    /// globals (which are thread-local at runtime, §3.2).
    Var(String),
}

impl Operand {
    /// The statically known type: a constant's own, or a variable's
    /// declared type in `var_types`. `None` for `any` and for constants
    /// that are not values.
    pub fn static_type(&self, var_types: &HashMap<&str, Type>) -> Option<Type> {
        match self {
            Operand::Var(v) => {
                let t = var_types.get(v.as_str())?.strip_ref().clone();
                if t == Type::Any {
                    None
                } else {
                    Some(t)
                }
            }
            Operand::Const(c) => Some(match c {
                Const::Bool(_) => Type::Bool,
                Const::Int(_) => Type::Int(64),
                Const::Double(_) => Type::Double,
                Const::Str(_) => Type::String,
                Const::BytesLit(_) => Type::Bytes,
                Const::Addr(_) => Type::Addr,
                Const::Net(_) => Type::Net,
                Const::Port(_) => Type::Port,
                Const::Time(_) => Type::Time,
                Const::Interval(_) => Type::Interval,
                Const::Patterns(_) => Type::Regexp,
                _ => return None,
            }),
        }
    }

    pub fn int(v: i64) -> Operand {
        Operand::Const(Const::Int(v))
    }

    pub fn bool_(v: bool) -> Operand {
        Operand::Const(Const::Bool(v))
    }

    pub fn str(s: &str) -> Operand {
        Operand::Const(Const::Str(s.to_owned()))
    }

    pub fn bytes(b: &[u8]) -> Operand {
        Operand::Const(Const::BytesLit(b.to_vec()))
    }

    pub fn ident(s: &str) -> Operand {
        Operand::Const(Const::Ident(s.to_owned()))
    }

    pub fn label(s: &str) -> Operand {
        Operand::Const(Const::Label(s.to_owned()))
    }

    pub fn var(s: &str) -> Operand {
        Operand::Var(s.to_owned())
    }
}

/// What executing an opcode can do besides producing its result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// Never raises.
    Total,
    /// Raises only when an operand is outside the opcode's signature.
    Typed,
    /// Can raise on operands inside its signature (`int.div x 0`). A row
    /// without a signature takes any operand, so it is this or `Total`.
    Traps,
    /// Reads or writes state beyond its operands: not pure.
    Effect,
}

macro_rules! row_fold {
    () => {
        false
    };
    (fold) => {
        true
    };
}

macro_rules! row_signature {
    () => (None);
    (($($param:ident),*) -> $result:ident) => {
        Some((&[$(Kind::$param),*], Kind::$result))
    };
}

macro_rules! opcodes {
    ($( $group:literal => { $(
        $variant:ident = $mnemonic:literal [$class:ident $($fold:ident)?]
        $( ($($param:ident),*) -> $result:ident )?
        $( ids[$($id:literal),*] )?
    ),* $(,)? } ),* $(,)?) => {
        /// Every instruction mnemonic of the machine.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum Opcode {
            $( $( $variant, )* )*
        }

        impl Opcode {
            /// The textual mnemonic, e.g. `list.push_back`.
            pub fn mnemonic(&self) -> &'static str {
                match self {
                    $( $( Opcode::$variant => $mnemonic, )* )*
                }
            }

            /// Parses a mnemonic.
            pub fn from_mnemonic(s: &str) -> Option<Opcode> {
                match s {
                    $( $( $mnemonic => Some(Opcode::$variant), )* )*
                    _ => None,
                }
            }

            /// The opcode's effect class.
            pub fn class(&self) -> OpClass {
                match self {
                    $( $( Opcode::$variant => OpClass::$class, )* )*
                }
            }

            /// True for side-effect-free instructions whose result depends
            /// only on their operands — the candidates for constant
            /// folding, CSE, and dead-code elimination.
            pub fn is_pure(&self) -> bool {
                self.class() != OpClass::Effect
            }

            /// True for the opcodes constant folding evaluates when every
            /// operand is a constant. Each takes one or two operands.
            pub fn folds(&self) -> bool {
                match self {
                    $( $( Opcode::$variant => row_fold!($($fold)?), )* )*
                }
            }

            /// Value-operand kinds and result kind, for the statically
            /// checkable opcodes. `any` operands are unchecked.
            pub const fn signature(&self) -> Option<(&'static [Kind], Kind)> {
                match self {
                    $( $( Opcode::$variant => row_signature!($( ($($param),*) -> $result )?), )* )*
                }
            }

            /// Positions of the operands that name something (a function,
            /// field, type, span) rather than hold a value.
            pub fn ident_positions(&self) -> &'static [usize] {
                match self {
                    $( $( Opcode::$variant => &[$($($id),*)?], )* )*
                }
            }

            /// The `--stats` bucket of the opcode's typed instruction,
            /// `spec.<mnemonic>`.
            pub fn spec_name(&self) -> &'static str {
                match self {
                    $( $( Opcode::$variant => concat!("spec.", $mnemonic), )* )*
                }
            }

            /// The functionality group (Table 1) the opcode belongs to.
            pub fn group(&self) -> &'static str {
                match self {
                    $( $( Opcode::$variant => $group, )* )*
                }
            }
        }

        /// Table 1 of the paper: instruction groups and their mnemonics.
        pub const GROUPS: &[(&str, &[&str])] = &[
            $( ($group, &[ $( $mnemonic, )* ]), )*
        ];

        /// Each row's signature as a type over [`kind`] markers:
        /// `sig::IntAdd` is `fn(kind::Int, kind::Int) -> kind::Int`.
        pub mod sig {
            use super::kind;
            $( $( $( pub type $variant = fn($(kind::$param),*) -> kind::$result; )? )* )*
        }
    };
}

macro_rules! kinds {
    ($( $kind:ident = $name:literal $types:pat, )*) => {
        /// The type names a row's signature uses, one uninhabited marker
        /// each, so that [`sig`] can state a signature as a type.
        pub mod kind {
            $( pub enum $kind {} )*
        }

        /// What a row's signature names for an operand or its result: a
        /// type, with `int` at any width and a container of any element
        /// types. `Copy`, so a signature is a `'static` table.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Kind {
            $( $kind, )*
        }

        impl Kind {
            /// True for a kind other than `any` and the containers.
            pub const fn is_scalar(self) -> bool {
                !matches!(self, Kind::Any | Kind::List | Kind::Vector | Kind::Set | Kind::Map)
            }

            /// True when a value declared `t` is of this kind. `any` on
            /// either side admits.
            pub fn admits(self, t: &Type) -> bool {
                match (self, t.strip_ref()) {
                    (_, Type::Any) => true,
                    $( (Kind::$kind, $types) => true, )*
                    _ => false,
                }
            }
        }

        impl fmt::Display for Kind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $( Kind::$kind => $name, )*
                })
            }
        }
    };
}

kinds! {
    Any = "any" _,
    Void = "void" Type::Void,
    Bool = "bool" Type::Bool,
    Int = "int<64>" Type::Int(_),
    Double = "double" Type::Double,
    String = "string" Type::String,
    Bytes = "bytes" Type::Bytes,
    BytesIter = "iterator<bytes>" Type::BytesIter,
    Addr = "addr" Type::Addr,
    Net = "net" Type::Net,
    Port = "port" Type::Port,
    Time = "time" Type::Time,
    Interval = "interval" Type::Interval,
    Regexp = "regexp" Type::Regexp,
    List = "list<any>" Type::List(_),
    Vector = "vector<any>" Type::Vector(_),
    Set = "set<any>" Type::Set(_),
    Map = "map<any, any>" Type::Map(..),
}

opcodes! {
    "Flow control" => {
        Assign = "assign" [Total],
        Call = "call" [Effect] ids[0],
        CallC = "call.c" [Effect] ids[0],
        CallVoid = "call.void" [Effect] ids[0],
        Yield = "yield" [Effect],
        New = "new" [Effect],
        DeepCopy = "deepcopy" [Effect] (Any) -> Any,
        Equal = "equal" [Total fold] (Any, Any) -> Bool,
        Unequal = "unequal" [Total fold] (Any, Any) -> Bool,
        Select = "select" [Typed] (Bool, Any, Any) -> Any,
    },
    "Integers" => {
        IntAdd = "int.add" [Typed fold] (Int, Int) -> Int,
        IntSub = "int.sub" [Typed fold] (Int, Int) -> Int,
        IntMul = "int.mul" [Typed fold] (Int, Int) -> Int,
        IntDiv = "int.div" [Traps fold] (Int, Int) -> Int,
        IntMod = "int.mod" [Traps fold] (Int, Int) -> Int,
        IntNeg = "int.neg" [Typed fold] (Int) -> Int,
        IntAbs = "int.abs" [Typed] (Int) -> Int,
        IntMin = "int.min" [Typed] (Int, Int) -> Int,
        IntMax = "int.max" [Typed] (Int, Int) -> Int,
        IntEq = "int.eq" [Typed fold] (Int, Int) -> Bool,
        IntLt = "int.lt" [Typed fold] (Int, Int) -> Bool,
        IntGt = "int.gt" [Typed fold] (Int, Int) -> Bool,
        IntLeq = "int.leq" [Typed fold] (Int, Int) -> Bool,
        IntGeq = "int.geq" [Typed fold] (Int, Int) -> Bool,
        IntAnd = "int.and" [Typed fold] (Int, Int) -> Int,
        IntOr = "int.or" [Typed fold] (Int, Int) -> Int,
        IntXor = "int.xor" [Typed fold] (Int, Int) -> Int,
        IntShl = "int.shl" [Typed fold] (Int, Int) -> Int,
        IntShr = "int.shr" [Typed fold] (Int, Int) -> Int,
        IntToDouble = "int.to_double" [Typed fold] (Int) -> Double,
        IntToString = "int.to_string" [Typed] (Int) -> String,
        IntFromBytes = "int.from_bytes" [Traps] (Bytes, Int) -> Int,
    },
    "Booleans" => {
        BoolAnd = "bool.and" [Typed fold] (Bool, Bool) -> Bool,
        BoolOr = "bool.or" [Typed fold] (Bool, Bool) -> Bool,
        BoolNot = "bool.not" [Typed fold] (Bool) -> Bool,
        BoolXor = "bool.xor" [Typed fold] (Bool, Bool) -> Bool,
    },
    "Bitsets" => {
        BitsetSet = "bitset.set" [Traps],
        BitsetClear = "bitset.clear" [Traps],
        BitsetHas = "bitset.has" [Traps],
    },
    "Doubles" => {
        DoubleAdd = "double.add" [Typed] (Double, Double) -> Double,
        DoubleSub = "double.sub" [Typed] (Double, Double) -> Double,
        DoubleMul = "double.mul" [Typed] (Double, Double) -> Double,
        DoubleDiv = "double.div" [Traps] (Double, Double) -> Double,
        DoubleLt = "double.lt" [Typed] (Double, Double) -> Bool,
        DoubleGt = "double.gt" [Typed] (Double, Double) -> Bool,
        DoubleLeq = "double.leq" [Typed] (Double, Double) -> Bool,
        DoubleGeq = "double.geq" [Typed] (Double, Double) -> Bool,
        DoubleAbs = "double.abs" [Typed] (Double) -> Double,
        DoubleToInt = "double.to_int" [Typed fold] (Double) -> Int,
    },
    "Strings" => {
        StringConcat = "string.concat" [Typed fold] (String, String) -> String,
        StringLength = "string.length" [Typed fold] (String) -> Int,
        StringFind = "string.find" [Typed] (String, String) -> Int,
        StringSubstr = "string.substr" [Typed] (String, Int, Int) -> String,
        StringToBytes = "string.to_bytes" [Typed] (String) -> Bytes,
        StringToInt = "string.to_int" [Traps] (String) -> Int,
        StringUpper = "string.upper" [Typed] (String) -> String,
        StringLower = "string.lower" [Typed] (String) -> String,
        StringStartsWith = "string.starts_with" [Typed] (String, String) -> Bool,
        StringFmt = "string.fmt" [Traps],
        StringRender = "string.render" [Total] (Any) -> String,
    },
    "Raw data" => {
        BytesAppend = "bytes.append" [Effect],
        BytesFreeze = "bytes.freeze" [Effect] (Bytes) -> Void,
        BytesUnfreeze = "bytes.unfreeze" [Effect] (Bytes) -> Void,
        BytesIsFrozen = "bytes.is_frozen" [Effect] (Bytes) -> Bool,
        BytesLength = "bytes.length" [Effect] (Bytes) -> Int,
        BytesSub = "bytes.sub" [Effect] (BytesIter, BytesIter) -> Bytes,
        BytesSubString = "bytes.sub_string" [Effect] (BytesIter, BytesIter) -> String,
        BytesFind = "bytes.find" [Effect],
        BytesTrim = "bytes.trim" [Effect] (Bytes, BytesIter) -> Void,
        BytesToString = "bytes.to_string" [Effect] (Bytes) -> String,
        BytesToInt = "bytes.to_int" [Effect] (Bytes, Int) -> Int,
        BytesBegin = "bytes.begin" [Effect] (Bytes) -> BytesIter,
        BytesEnd = "bytes.end" [Effect] (Bytes) -> BytesIter,
        BytesAt = "bytes.at" [Effect] (Bytes, Int) -> BytesIter,
        BytesStartsWith = "bytes.starts_with" [Effect],
        BytesCopy = "bytes.copy" [Effect] (Bytes) -> Bytes,
        BytesEod = "bytes.eod" [Effect],
    },
    "Bytes iterators" => {
        IterIncr = "iterator.incr" [Typed] (BytesIter, Int) -> BytesIter,
        IterDeref = "iterator.deref" [Effect] (BytesIter) -> Int,
        IterUnpackBe = "iterator.unpack_be" [Effect] (BytesIter, Int) -> Int,
        IterUnpackLe = "iterator.unpack_le" [Effect] (BytesIter, Int) -> Int,
        IterOffset = "iterator.offset" [Typed] (BytesIter) -> Int,
        IterDiff = "iterator.diff" [Traps] (BytesIter, BytesIter) -> Int,
        IterAtFrozenEnd = "iterator.at_frozen_end" [Effect] (BytesIter) -> Bool,
        IterWouldBlock = "iterator.would_block" [Effect] (BytesIter) -> Bool,
    },
    "IP addresses" => {
        AddrFamily = "addr.family" [Typed] (Addr) -> Int,
        AddrMask = "addr.mask" [Typed] (Addr, Int) -> Addr,
    },
    "CIDR masks" => {
        NetContains = "network.contains" [Typed] (Net, Addr) -> Bool,
        NetFamily = "network.family" [Typed] (Net) -> Int,
        NetPrefix = "network.prefix" [Typed] (Net) -> Addr,
        NetLength = "network.length" [Typed] (Net) -> Int,
    },
    "Ports" => {
        PortProtocol = "port.protocol" [Typed] (Port) -> String,
        PortNumber = "port.number" [Typed] (Port) -> Int,
    },
    "Times" => {
        TimeAdd = "time.add" [Typed] (Time, Interval) -> Time,
        TimeSubTime = "time.sub_time" [Typed] (Time, Time) -> Interval,
        TimeSubInterval = "time.sub_interval" [Typed] (Time, Interval) -> Time,
        TimeLt = "time.lt" [Typed] (Time, Time) -> Bool,
        TimeGt = "time.gt" [Typed] (Time, Time) -> Bool,
        TimeFromDouble = "time.from_double" [Typed] (Double) -> Time,
        TimeToDouble = "time.to_double" [Typed] (Time) -> Double,
        TimeNsecs = "time.nsecs" [Typed] (Time) -> Int,
    },
    "Time intervals" => {
        IntervalAdd = "interval.add" [Typed] (Interval, Interval) -> Interval,
        IntervalSub = "interval.sub" [Typed] (Interval, Interval) -> Interval,
        IntervalLt = "interval.lt" [Typed] (Interval, Interval) -> Bool,
        IntervalGt = "interval.gt" [Typed] (Interval, Interval) -> Bool,
        IntervalFromDouble = "interval.from_double" [Typed] (Double) -> Interval,
        IntervalToDouble = "interval.to_double" [Typed] (Interval) -> Double,
        IntervalNsecs = "interval.nsecs" [Typed] (Interval) -> Int,
    },
    "Enumerations" => {
        EnumFromInt = "enum.from_int" [Traps] ids[1],
        EnumToInt = "enum.to_int" [Traps],
    },
    "Tuples" => {
        TupleGet = "tuple.get" [Traps],
        TupleLength = "tuple.length" [Traps],
        TuplePack = "tuple.pack" [Total],
    },
    "Lists" => {
        ListPushBack = "list.push_back" [Effect] (List, Any) -> Void,
        ListPushFront = "list.push_front" [Effect] (List, Any) -> Void,
        ListPopFront = "list.pop_front" [Effect] (List) -> Any,
        ListPopBack = "list.pop_back" [Effect] (List) -> Any,
        ListFront = "list.front" [Effect] (List) -> Any,
        ListBack = "list.back" [Effect] (List) -> Any,
        ListLength = "list.length" [Effect] (List) -> Int,
        ListAppend = "list.append" [Effect] (List, Any) -> Void,
        ListClear = "list.clear" [Effect] (List) -> Void,
    },
    "Vectors/arrays" => {
        VectorPushBack = "vector.push_back" [Effect] (Vector, Any) -> Void,
        VectorPopBack = "vector.pop_back" [Effect] (Vector) -> Any,
        VectorGet = "vector.get" [Effect] (Vector, Int) -> Any,
        VectorSet = "vector.set" [Effect] (Vector, Int, Any) -> Void,
        VectorLength = "vector.length" [Effect] (Vector) -> Int,
        VectorReserve = "vector.reserve" [Effect] (Vector, Int) -> Void,
        VectorClear = "vector.clear" [Effect] (Vector) -> Void,
    },
    "Hashsets" => {
        SetInsert = "set.insert" [Effect] (Set, Any) -> Void,
        SetExists = "set.exists" [Effect] (Set, Any) -> Bool,
        SetRemove = "set.remove" [Effect] (Set, Any) -> Bool,
        SetSize = "set.size" [Effect] (Set) -> Int,
        SetTimeout = "set.timeout" [Effect] (Set, Any, Interval) -> Void,
        SetClear = "set.clear" [Effect] (Set) -> Void,
        SetMembers = "set.members" [Effect] (Set) -> List,
    },
    "Hashmaps" => {
        MapInsert = "map.insert" [Effect] (Map, Any, Any) -> Void,
        MapGet = "map.get" [Effect] (Map, Any) -> Any,
        MapGetDefault = "map.get_default" [Effect] (Map, Any, Any) -> Any,
        MapExists = "map.exists" [Effect] (Map, Any) -> Bool,
        MapRemove = "map.remove" [Effect] (Map, Any) -> Bool,
        MapSize = "map.size" [Effect] (Map) -> Int,
        MapTimeout = "map.timeout" [Effect] (Map, Any, Interval) -> Void,
        MapClear = "map.clear" [Effect] (Map) -> Void,
        MapKeys = "map.keys" [Effect] (Map) -> List,
    },
    "Structs" => {
        StructGet = "struct.get" [Effect] ids[1],
        StructSet = "struct.set" [Effect] ids[1],
        StructIsSet = "struct.is_set" [Effect] ids[1],
        StructUnset = "struct.unset" [Effect] ids[1],
    },
    "Packet classification" => {
        ClassifierAdd = "classifier.add" [Effect],
        ClassifierAddPrio = "classifier.add_prio" [Effect],
        ClassifierCompile = "classifier.compile" [Effect],
        ClassifierGet = "classifier.get" [Effect],
        ClassifierMatches = "classifier.matches" [Effect],
        ClassifierSize = "classifier.size" [Effect],
    },
    "Regular expressions" => {
        RegexpNew = "regexp.new" [Effect],
        RegexpMatchPrefix = "regexp.match_prefix" [Effect] (Regexp, Bytes) -> Int,
        RegexpFind = "regexp.find" [Effect],
        RegexpMatchToken = "regexp.match_token" [Effect],
        RegexpMatcherInit = "regexp.matcher_init" [Effect],
        RegexpMatcherFeed = "regexp.matcher_feed" [Effect],
        RegexpMatcherFinish = "regexp.matcher_finish" [Effect],
    },
    "Channels" => {
        ChannelWrite = "channel.write" [Effect],
        ChannelRead = "channel.read" [Effect],
        ChannelTryRead = "channel.try_read" [Effect],
        ChannelSize = "channel.size" [Effect],
        ChannelClose = "channel.close" [Effect],
    },
    "Timer management" => {
        TimerMgrAdvance = "timer_mgr.advance" [Effect],
        TimerMgrAdvanceGlobal = "timer_mgr.advance_global" [Effect],
        TimerMgrSchedule = "timer_mgr.schedule" [Effect],
        TimerMgrCancel = "timer_mgr.cancel" [Effect],
        TimerMgrCurrent = "timer_mgr.current" [Effect],
        TimerMgrGlobalTime = "timer_mgr.global_time" [Effect],
        TimerMgrSize = "timer_mgr.size" [Effect],
    },
    "Timers" => {
        TimerNew = "timer.new" [Effect],
        TimerCancel = "timer.cancel" [Effect],
    },
    "Virtual threads" => {
        ThreadSchedule = "thread.schedule" [Effect],
        ThreadId = "thread.id" [Effect],
    },
    "Callbacks" => {
        HookRun = "hook.run" [Effect] ids[0],
        HookRunVoid = "hook.run_void" [Effect] ids[0],
    },
    "Closures" => {
        CallableBind = "callable.bind" [Effect] ids[0],
        CallableCall = "callable.call" [Effect],
        CallableCallVoid = "callable.call_void" [Effect],
    },
    "Packet dissection" => {
        OverlayGet = "overlay.get" [Effect] ids[0, 1],
    },
    "File i/o" => {
        FileOpen = "file.open" [Effect],
        FileWrite = "file.write" [Effect],
        FileClose = "file.close" [Effect],
    },
    "Packet i/o" => {
        IosrcOpen = "iosrc.open" [Effect],
        IosrcRead = "iosrc.read" [Effect],
    },
    "Profiling" => {
        ProfilerStart = "profiler.start" [Effect] ids[0],
        ProfilerStop = "profiler.stop" [Effect] ids[0],
        ProfilerCount = "profiler.count" [Effect] ids[0],
        ProfilerTime = "profiler.time" [Effect] ids[0],
    },
    "Debug support" => {
        DebugPrint = "debug.print" [Effect],
        DebugAssert = "debug.assert" [Effect],
        DebugInternalError = "debug.internal_error" [Effect],
    },
    "Exceptions" => {
        ExceptionThrow = "exception.throw" [Effect] ids[0],
        ExceptionKindOf = "exception.kind" [Traps],
        ExceptionMessage = "exception.message" [Traps],
        PushHandler = "exception.push_handler" [Effect],
        PopHandler = "exception.pop_handler" [Effect],
    },
}

/// One three-address instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Instr {
    /// Destination variable, if the instruction produces a value.
    pub target: Option<String>,
    pub opcode: Opcode,
    pub args: Vec<Operand>,
}

impl Instr {
    pub fn new(target: Option<&str>, opcode: Opcode, args: Vec<Operand>) -> Self {
        Instr {
            target: target.map(str::to_owned),
            opcode,
            args,
        }
    }

    /// The operands that hold values: all but identifiers, labels and
    /// types.
    pub fn value_operands(&self) -> impl Iterator<Item = &Operand> {
        self.args.iter().filter(|a| {
            !matches!(
                a,
                Operand::Const(Const::Ident(_) | Const::Label(_) | Const::TypeRef(_))
            )
        })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(t) = &self.target {
            write!(f, "{t} = ")?;
        }
        write!(f, "{}", self.opcode.mnemonic())?;
        for a in &self.args {
            write!(f, " {a:?}")?;
        }
        Ok(())
    }
}

/// Block terminator.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    Jump(String),
    /// `if.else cond then_label else_label`.
    IfElse(Operand, String, String),
    Return(Option<Operand>),
}

/// A labeled basic block.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    pub label: String,
    pub instrs: Vec<Instr>,
    pub term: Terminator,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Fully qualified name, `Module::name`.
    pub name: String,
    pub params: Vec<(String, Type)>,
    pub ret: Type,
    pub locals: Vec<(String, Type)>,
    pub blocks: Vec<Block>,
}

impl Function {
    /// Finds a block by label.
    pub fn block(&self, label: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.label == label)
    }

    /// Index of a block by label.
    pub fn block_index(&self, label: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.label == label)
    }

    /// The declared type of every name the body can read: parameters and
    /// locals, then the program's `globals` no local shadows.
    pub fn var_types<'a>(
        &'a self,
        globals: &'a [(String, Type, Option<Const>)],
    ) -> HashMap<&'a str, Type> {
        let mut types: HashMap<&str, Type> = HashMap::new();
        for (n, t) in self.params.iter().chain(self.locals.iter()) {
            types.insert(n.as_str(), t.clone());
        }
        for (n, t, _) in globals {
            types.entry(n.as_str()).or_insert_with(|| t.clone());
        }
        types
    }
}

/// A user-defined type.
#[derive(Clone, Debug)]
pub enum TypeDef {
    Struct(Vec<(String, Type)>),
    Enum(Vec<String>),
    Bitset(Vec<String>),
    Overlay(OverlayType),
}

/// A hook body: an ordinary function plus a priority (§5: hooks may have
/// bodies in several compilation units; higher priority runs first).
#[derive(Clone, Debug)]
pub struct HookBody {
    pub priority: i64,
    pub func: Function,
}

/// One compilation unit.
#[derive(Clone, Debug, Default)]
pub struct Module {
    pub name: String,
    pub types: HashMap<String, TypeDef>,
    /// Globals are *thread-local to the executing virtual thread* (§3.2:
    /// "no truly global" state). Initialized per context.
    pub globals: Vec<(String, Type, Option<Const>)>,
    pub functions: Vec<Function>,
    /// Hook name → bodies defined in this unit.
    pub hooks: HashMap<String, Vec<HookBody>>,
}

impl Module {
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Qualifies a bare name with this module's namespace.
    pub fn qualify(&self, bare: &str) -> String {
        if bare.contains("::") {
            bare.to_owned()
        } else {
            format!("{}::{bare}", self.name)
        }
    }
}

/// Total number of instruction mnemonics.
pub fn instruction_count() -> usize {
    GROUPS.iter().map(|(_, ms)| ms.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::CompiledProgram;
    use crate::ops;
    use crate::value::{ExceptionVal, Value};
    use crate::vm::Context;
    use hilti_rt::bytestring::Bytes;
    use hilti_rt::error::ExceptionKind;
    use std::rc::Rc;

    #[test]
    fn mnemonic_roundtrip() {
        for (_, mnemonics) in GROUPS {
            for m in *mnemonics {
                let op = Opcode::from_mnemonic(m).expect("every mnemonic parses");
                assert_eq!(op.mnemonic(), *m);
            }
        }
        assert_eq!(Opcode::from_mnemonic("no.such.op"), None);
    }

    #[test]
    fn instruction_count_in_paper_ballpark() {
        // "In total HILTI currently offers about 200 instructions (counting
        // instructions overloaded by their argument types only once)."
        let n = instruction_count();
        assert!((140..=260).contains(&n), "instruction count {n}");
    }

    #[test]
    fn table1_groups_covered() {
        // Every functionality group from Table 1 of the paper exists.
        let expected = [
            "Bitsets",
            "Booleans",
            "CIDR masks",
            "Callbacks",
            "Closures",
            "Channels",
            "Debug support",
            "Doubles",
            "Enumerations",
            "Exceptions",
            "File i/o",
            "Flow control",
            "Hashmaps",
            "Hashsets",
            "IP addresses",
            "Integers",
            "Lists",
            "Packet i/o",
            "Packet classification",
            "Packet dissection",
            "Ports",
            "Profiling",
            "Raw data",
            "References",
            "Regular expressions",
            "Strings",
            "Structs",
            "Time intervals",
            "Timer management",
            "Timers",
            "Times",
            "Tuples",
            "Vectors/arrays",
            "Virtual threads",
        ];
        let have: Vec<&str> = GROUPS.iter().map(|(g, _)| *g).collect();
        for g in expected {
            // "References" are implicit in our value model; everything else
            // must be present by name.
            if g == "References" {
                continue;
            }
            assert!(have.contains(&g), "missing group {g}");
        }
    }

    #[test]
    fn purity_classification() {
        assert!(Opcode::IntAdd.is_pure());
        assert!(Opcode::Equal.is_pure());
        assert!(!Opcode::SetInsert.is_pure());
        assert!(!Opcode::Call.is_pure());
        assert!(!Opcode::BytesLength.is_pure()); // length changes via append
        assert!(Opcode::IterIncr.is_pure());
    }

    /// Operand values of kind `k`, edges included: what a `Typed` row
    /// must accept and a `Traps` row must raise on one of.
    fn samples(k: &Kind) -> Vec<Value> {
        let bytes = Bytes::frozen_from_slice(b"12");
        match k {
            Kind::Int => [0, -1, 7, 63, 64, i64::MIN, i64::MAX]
                .map(Value::Int)
                .to_vec(),
            Kind::Bool => vec![Value::Bool(false), Value::Bool(true)],
            Kind::Double => [0.0, -1.5, f64::NAN].map(Value::Double).to_vec(),
            Kind::String => ["", "x", "12"].map(Value::str).to_vec(),
            Kind::Bytes => vec![Value::Bytes(bytes), Value::Bytes(Bytes::new())],
            // Iterators over two different bytes objects.
            Kind::BytesIter => vec![
                Value::BytesIter(bytes.begin()),
                Value::BytesIter(bytes.end()),
                Value::BytesIter(Bytes::new().begin()),
            ],
            Kind::Addr => ["10.0.0.1", "::1"]
                .map(|a| Value::Addr(a.parse().unwrap()))
                .to_vec(),
            Kind::Net => ["10.0.0.0/8", "2001:db8::/32"]
                .map(|n| Value::Net(n.parse().unwrap()))
                .to_vec(),
            Kind::Port => vec![Value::Port("80/tcp".parse().unwrap())],
            Kind::Time => [0, 5].map(|s| Value::Time(Time::from_secs(s))).to_vec(),
            Kind::Interval => [-3, 0, 2]
                .map(|s| Value::Interval(Interval::from_secs(s)))
                .to_vec(),
            Kind::Any => vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(2),
                Value::Int(10),
                Value::Double(0.5),
                Value::str("{}"),
                Value::str("x"),
                Value::Bytes(bytes.clone()),
                Value::BytesIter(bytes.begin()),
                Value::Addr("10.0.0.1".parse().unwrap()),
                Value::Port("80/tcp".parse().unwrap()),
                Value::Time(Time::from_secs(1)),
                Value::Interval(Interval::from_secs(1)),
                Value::Tuple(Rc::new([Value::Null, Value::Null, Value::Null])),
                Value::Enum(Rc::from("E"), 1),
                Value::Exception(Rc::new(ExceptionVal {
                    kind: ExceptionKind::ValueError,
                    message: "m".into(),
                })),
            ],
            other => panic!("no samples of {other}"),
        }
    }

    /// Whether `op` raises, for every combination of one operand from
    /// each pool.
    fn outcomes(op: Opcode, pools: &[Vec<Value>], ctx: &mut Context) -> Vec<bool> {
        let mut combos: Vec<Vec<&Value>> = vec![vec![]];
        for pool in pools {
            combos = combos
                .iter()
                .flat_map(|c| pool.iter().map(move |v| [&c[..], &[v]].concat()))
                .collect();
        }
        let idents = ["E".to_owned()];
        combos
            .iter()
            .map(|args| ops::eval(op, args, &idents, &mut ctx.env).is_err())
            .collect()
    }

    /// Every pure row's class holds against `ops::eval`. Without a
    /// signature every operand is `any`, so such a row is `Total` or
    /// `Traps`, and its operand count is probed from 0 to 3.
    #[test]
    fn pure_rows_match_eval() {
        let mut ctx = Context::for_program(&CompiledProgram::default());
        let any = samples(&Kind::Any);
        for (_, mnemonics) in GROUPS {
            for m in *mnemonics {
                let op = Opcode::from_mnemonic(m).unwrap();
                let at_arity = |n, ctx: &mut Context| outcomes(op, &vec![any.clone(); n], ctx);
                let typed = |ctx: &mut Context| {
                    let (params, _) = op.signature().expect("row has a signature");
                    outcomes(op, &params.iter().map(samples).collect::<Vec<_>>(), ctx)
                };
                match (op.class(), op.signature()) {
                    (OpClass::Effect, _) => assert!(!op.folds(), "{m}: folds an effect"),
                    // Raises on the operand count at most, never on a value.
                    (OpClass::Total, _) => {
                        let runs: Vec<Vec<bool>> = (0..=3).map(|n| at_arity(n, &mut ctx)).collect();
                        for (n, r) in runs.iter().enumerate() {
                            assert!(
                                r.iter().all(|&e| e == r[0]),
                                "{m}: raises on a value at arity {n}"
                            );
                        }
                        assert!(runs.iter().any(|r| !r[0]), "{m}: raises at every arity");
                    }
                    (OpClass::Typed, None) => panic!("{m}: a typed row needs a signature"),
                    (OpClass::Typed, Some(_)) => {
                        assert!(
                            !typed(&mut ctx).contains(&true),
                            "{m}: raises inside its signature"
                        );
                    }
                    // Minimal: some operands the row admits raise.
                    (OpClass::Traps, Some(_)) => {
                        assert!(
                            typed(&mut ctx).contains(&true),
                            "{m}: never raises, so not traps"
                        );
                    }
                    (OpClass::Traps, None) => assert!(
                        (0..=3).any(|n| {
                            let r = at_arity(n, &mut ctx);
                            r.contains(&true) && r.contains(&false)
                        }),
                        "{m}: no value decides whether it raises, so not traps"
                    ),
                }
                // `passes::evaluate` folds one or two constant operands.
                if op.folds() {
                    let arity = op.signature().map(|(params, _)| params.len());
                    assert!(
                        matches!(arity, Some(1 | 2)),
                        "{m}: folds {arity:?} operands"
                    );
                }
            }
        }
    }

    #[test]
    fn groups_assigned() {
        assert_eq!(Opcode::ListPushBack.group(), "Lists");
        assert_eq!(Opcode::ClassifierGet.group(), "Packet classification");
        assert_eq!(Opcode::ThreadSchedule.group(), "Virtual threads");
    }

    #[test]
    fn module_qualify() {
        let m = Module::new("Main");
        assert_eq!(m.qualify("run"), "Main::run");
        assert_eq!(m.qualify("Hilti::print"), "Hilti::print");
    }

    #[test]
    fn instr_display() {
        let i = Instr::new(
            Some("x"),
            Opcode::IntAdd,
            vec![Operand::var("a"), Operand::int(1)],
        );
        let s = format!("{i}");
        assert!(s.starts_with("x = int.add"));
    }
}
