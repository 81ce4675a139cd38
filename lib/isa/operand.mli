(** Operands of x86-64 instruction schemes.

    Instruction schemes (uops.info "instruction forms") abstract over the
    concrete registers and immediate values; an operand therefore only
    records its kind, bit width and access direction.  Memory-operand widths
    drive the macro-op to µop postulate of §4.1.1 of the paper. *)

type kind =
  | Gpr of int           (** general-purpose register of the given width *)
  | Gpr_high             (** legacy high-byte register (AH/BH/CH/DH) *)
  | Vec of int           (** vector register: 128 = XMM, 256 = YMM *)
  | Mem of int           (** memory operand of the given width in bits *)
  | Imm of int           (** immediate of the given width in bits *)

type access = Read | Write | Read_write

type t = { kind : kind; access : access }

val gpr : ?access:access -> int -> t
val gpr_high : ?access:access -> unit -> t
val xmm : ?access:access -> unit -> t
val ymm : ?access:access -> unit -> t
val mem : ?access:access -> int -> t
val imm : int -> t

val memory_width : t -> int option
val is_memory_read : t -> bool
val is_memory_write : t -> bool

val to_string : t -> string
(** uops.info-style rendering, e.g. ["<GPR[32]>"] or ["<MEM[128]>"]. *)

val pp : Format.formatter -> t -> unit
