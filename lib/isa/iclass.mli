(** Behaviour classes of the simulated Zen+ catalog.

    A scheme's {e structure} says which µops it decomposes into (in terms of
    functional-unit base classes), and its optional {e quirk} marks a
    deviation from the pure port-mapping model that the simulated machine
    reproduces (§3.4 and §4.1-4.4 of the paper).  The machine library maps
    base classes to concrete port sets; keeping the symbolic classes here
    lets the catalog stay independent of the port-level ground truth. *)

(** Functional-unit base class of a single µop. *)
type base =
  | Alu            (** scalar ALU, 4 ports *)
  | Vec_logic      (** vector logic, 4 FP ports *)
  | Vec_int_arith  (** vector integer arithmetic, 3 ports *)
  | Fp_mul_cmp     (** FP compare/multiply, 2 ports *)
  | Shuffle        (** vector layouting, 2 ports *)
  | Vec_sat        (** saturating vector ops, 2 ports *)
  | Fp_add         (** FP addition, 2 ports *)
  | Load           (** memory load, 2 AGU ports *)
  | Vec_shift_imm  (** vector shift, 1 port *)
  | Vec_mul_hard   (** elaborate vector multiply, 1 port *)
  | Scalar_mul     (** scalar integer multiply, 1 port *)
  | Fp_round       (** vector rounding / FP divider pipe, 1 port *)
  | Vec_to_gpr     (** vector-to-GPR transfer, 1 port *)
  | Store          (** store-data/retire µop, 1 port *)

(** µop structure of a scheme. *)
type structure =
  | Nullary                    (** retires without µops: nop, eliminated mov *)
  | Single of base
  | With_load of base * int    (** register form plus [n] load µops *)
  | Rmw of base * bool         (** read-modify-write; [true] adds the extra
                                   AGU µop of narrow (≤32-bit) operations *)
  | Ymm_single of base         (** double-pumped 256-bit form: 2 × base *)
  | Ymm_with_load of base      (** 2 × base + 2 load µops *)
  | Store_scalar               (** store µop + ALU data µop (the §4.1 mov) *)
  | Store_vec                  (** store µop + FP-pipe data µop *)
  | Store_vec_ymm              (** double-pumped vector store *)
  | Multi of base list         (** any other decomposition, incl. microcode *)

(** Deviations from the port-mapping model. *)
type quirk =
  | Div_slow          (** non-pipelined divider (§4.1.2) *)
  | Imm64_unreliable  (** 64-bit immediate mov (§4.1.2) *)
  | High8             (** hardwired AH/DH operands (§4.1.2) *)
  | Pair_unstable     (** unstable when benchmarked with others (§4.2) *)
  | Fma_lines         (** occupies the data lines of a third port (§4.2) *)
  | Mul_anomaly       (** the §4.3 imul 1.5-cycle effect *)
  | Vec_mul_slow      (** vpmuldq-style sub-model throughput (§4.3) *)
  | Gpr_cross         (** vmovd-style inconsistent conflicts (§4.3) *)
  | Ms_microcode      (** microcode-sequencer frontend stall (§4.4) *)
  | Tp_unstable       (** unstable throughput in combination (§4.4) *)

type t = { structure : structure; quirk : quirk option }

val plain : structure -> t
val quirky : structure -> quirk -> t

val macro_ops : structure -> int
(** Number of macro-ops the "Retired Uops" counter reports (§4.1.1): memory
    µops are fused into their macro-op; double-pumped 256-bit forms retire
    two macro-ops; microcoded schemes retire one macro-op per µop. *)

val base_to_string : base -> string
val pp : Format.formatter -> t -> unit
