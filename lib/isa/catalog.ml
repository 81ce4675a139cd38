(* Catalog generation.  Each bucket lists a pool of (mnemonic, operands,
   class) templates and a target population taken from the paper's funnel;
   pools are cycled with variant tags when smaller than the target. *)

type t = {
  schemes : Scheme.t array;
  buckets : (string * Scheme.t list) list;
  bucket_by_id : string array;
}

type template = string * Operand.t list * Iclass.t

type bucket_spec = {
  bname : string;
  target : int;
  pool : template list;
}

open Operand
open Iclass

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)
(* ------------------------------------------------------------------ *)

let scalar_widths = [ 16; 32; 64 ]

let product f xs ys = List.concat_map (fun x -> List.map (f x) ys) xs

(* Like [product], but [f] produces several templates per combination. *)
let product2 f xs ys = List.concat_map (fun x -> List.concat_map (f x) ys) xs

(* Two-operand scalar ALU forms: register-register and register-immediate.
   8-bit low-register forms are included so the read-modify-write memory
   forms have register siblings. *)
let alu2_forms mnems klass =
  product2
    (fun m w ->
       [ (m, [ gpr w; gpr ~access:Read w ], klass);
         (m, [ gpr w; imm (min w 32) ], klass) ])
    mnems (8 :: scalar_widths)

let alu1_forms mnems klass =
  product (fun m w -> (m, [ gpr w ], klass)) mnems scalar_widths

(* Three-operand AVX forms on XMM registers. *)
let vx3 mnems klass =
  List.map (fun m -> (m, [ xmm ~access:Write (); xmm (); xmm () ], klass)) mnems

let vy3 mnems klass =
  List.map (fun m -> (m, [ ymm ~access:Write (); ymm (); ymm () ], klass)) mnems

let vx3_mem mnems klass =
  List.map (fun m -> (m, [ xmm ~access:Write (); xmm (); mem 128 ], klass)) mnems

let vy3_mem mnems klass =
  List.map (fun m -> (m, [ ymm ~access:Write (); ymm (); mem 256 ], klass)) mnems

(* Two-operand AVX forms (destructive or move-like). *)
let vx2 mnems klass =
  List.map (fun m -> (m, [ xmm ~access:Write (); xmm () ], klass)) mnems

(* Legacy-SSE destructive two-operand counterparts of the AVX forms; the
   uops.info corpus lists both encodings as separate schemes, and on Zen+
   they share the AVX forms' port behaviour. *)
let sse2op mnems klass =
  List.map
    (fun m -> (m, [ xmm ~access:Read_write (); xmm () ], klass))
    mnems

let sse2op_imm mnems klass =
  List.map
    (fun m -> (m, [ xmm ~access:Read_write (); xmm (); imm 8 ], klass))
    mnems

let drop_v = List.map (fun m ->
    if String.length m > 1 && m.[0] = 'v' then String.sub m 1 (String.length m - 1)
    else m)

let vx3_imm mnems klass =
  List.map
    (fun m -> (m, [ xmm ~access:Write (); xmm (); xmm (); imm 8 ], klass))
    mnems

(* ------------------------------------------------------------------ *)
(* Mnemonic families                                                   *)
(* ------------------------------------------------------------------ *)

let alu2_mnems = [ "add"; "sub"; "and"; "or"; "xor"; "cmp"; "adc"; "sbb"; "test" ]
let alu1_mnems = [ "inc"; "dec"; "neg"; "not" ]
let shift_mnems = [ "shl"; "shr"; "sar"; "rol"; "ror"; "rcl"; "rcr" ]
let setcc_ccs = [ "o"; "no"; "b"; "ae"; "e"; "ne"; "be"; "a";
                  "s"; "ns"; "p"; "np"; "l"; "ge"; "le"; "g" ]

let vec_logic3_mnems = [ "vpor"; "vpand"; "vpxor"; "vpandn"; "vptest" ]

(* Register-to-register vector moves execute on the same four FP pipes but
   are two-operand; their memory forms are pure loads/stores and therefore
   belong to the load and store buckets, not here. *)
let vec_move_mnems =
  [ "vmovdqa"; "vmovaps"; "vmovapd"; "vmovdqu"; "vmovups"; "vmovupd" ]

let vec_int_mnems =
  [ "vpaddb"; "vpaddw"; "vpaddd"; "vpaddq"; "vpsubb"; "vpsubw"; "vpsubd";
    "vpsubq"; "vpcmpeqb"; "vpcmpeqw"; "vpcmpeqd"; "vpcmpgtw"; "vpabsb";
    "vpabsw"; "vpabsd"; "vpminsb"; "vpminsw"; "vpminsd"; "vpminub";
    "vpminuw"; "vpminud"; "vpmaxsb"; "vpmaxsw"; "vpmaxsd"; "vpmaxub";
    "vpmaxuw"; "vpmaxud"; "vpsignb"; "vpsignw"; "vpsignd" ]

let fp_mul_cmp_mnems =
  [ "vmulps"; "vmulss"; "vminps"; "vminpd"; "vminss"; "vminsd"; "vmaxps";
    "vmaxpd"; "vmaxss"; "vmaxsd"; "vcmpps"; "vcmppd"; "vcmpss"; "vcmpsd";
    "vpcmpeqq"; "vucomiss"; "vucomisd"; "vcomiss"; "vcomisd" ]

(* vbroadcastss is two-operand (Table 1 renders it that way); it gets its
   own form below and stays out of the three-operand derived pools. *)
let shuffle_mnems =
  [ "vpshufd"; "vpshufb"; "vpshuflw"; "vpshufhw"; "vshufps"; "vshufpd";
    "vpermilps"; "vpermilpd"; "vmovddup"; "vmovshdup";
    "vmovsldup"; "vpunpcklbw"; "vpunpcklwd"; "vpunpckldq"; "vpunpcklqdq";
    "vpunpckhbw"; "vpunpckhwd"; "vpunpckhdq"; "vpunpckhqdq"; "vunpcklps";
    "vunpcklpd"; "vunpckhps"; "vunpckhpd"; "vpacksswb"; "vpackssdw";
    "vpackuswb"; "vpackusdw"; "vpalignr"; "vinsertps" ]

let vec_sat_mnems =
  [ "vpaddsb"; "vpaddsw"; "vpaddusb"; "vpaddusw"; "vpsubsb"; "vpsubsw";
    "vpsubusb"; "vpsubusw"; "vpavgb"; "vpavgw" ]

let fp_add_mnems =
  [ "vaddps"; "vaddss"; "vaddsd"; "vaddpd"; "vsubps"; "vsubss"; "vsubsd";
    "vsubpd"; "vaddsubps"; "vaddsubpd" ]

let vec_shift_mnems =
  [ "vpsllw"; "vpslld"; "vpsllq"; "vpsrlw"; "vpsrld"; "vpsrlq"; "vpsraw";
    "vpsrad" ]

let vec_mul_hard_mnems =
  [ "vpmuldq"; "vpmuludq"; "vpmulld"; "vpmulhrsw"; "vpmaddubsw" ]

let fp_round_mnems = [ "vroundps"; "vroundpd"; "vroundss"; "vroundsd" ]

let fp_slow_mnems =
  [ "vdivps"; "vdivpd"; "vdivss"; "vdivsd"; "vsqrtps"; "vsqrtpd"; "vsqrtss";
    "vsqrtsd"; "vrsqrtps"; "vrsqrtss"; "vrcpps"; "vrcpss" ]

let vcvt_mnems =
  [ "vcvtdq2ps"; "vcvtdq2pd"; "vcvtps2dq"; "vcvtpd2dq"; "vcvttps2dq";
    "vcvttpd2dq"; "vcvtps2pd"; "vcvtpd2ps"; "vcvtss2sd"; "vcvtsd2ss";
    "vcvtsi2ss"; "vcvtsi2sd"; "vcvtss2si"; "vcvtsd2si"; "vcvttss2si";
    "vcvttsd2si" ]

let aes_mnems =
  [ "aesenc"; "aesenclast"; "aesdec"; "aesdeclast"; "aesimc";
    "aeskeygenassist" ]

let blend_mnems =
  [ "vblendps"; "vblendpd"; "vpblendw"; "vpblendd"; "vblendvps"; "vblendvpd";
    "vpblendvb" ]

let fma_mnems =
  let ops = [ "fmadd"; "fmsub"; "fnmadd"; "fnmsub" ] in
  let orders = [ "132"; "213"; "231" ] in
  let types = [ "ps"; "pd"; "ss"; "sd" ] in
  List.concat_map
    (fun op ->
       List.concat_map
         (fun ord -> List.map (fun ty -> "v" ^ op ^ ord ^ ty) types)
         orders)
    ops

(* ------------------------------------------------------------------ *)
(* Bucket specifications (targets mirror the paper's funnel)           *)
(* ------------------------------------------------------------------ *)

let repeat n x = List.init n (fun _ -> x)

let bucket_specs () : bucket_spec list =
  let single b = plain (Single b) in
  let alu_rr_pool =
    alu2_forms alu2_mnems (single Alu)
    @ alu1_forms alu1_mnems (single Alu)
    @ product2
        (fun m w ->
           [ (m, [ gpr w; imm 8 ], single Alu);
             (m, [ gpr w; gpr ~access:Read 8 ], single Alu) ])
        shift_mnems scalar_widths
    @ List.map (fun cc -> ("set" ^ cc, [ gpr ~access:Write 8 ], single Alu)) setcc_ccs
    @ [ ("movzx", [ gpr ~access:Write 32; gpr ~access:Read 8 ], single Alu);
        ("movzx", [ gpr ~access:Write 32; gpr ~access:Read 16 ], single Alu);
        ("movzx", [ gpr ~access:Write 64; gpr ~access:Read 8 ], single Alu);
        ("movzx", [ gpr ~access:Write 64; gpr ~access:Read 16 ], single Alu);
        ("movsx", [ gpr ~access:Write 32; gpr ~access:Read 8 ], single Alu);
        ("movsx", [ gpr ~access:Write 32; gpr ~access:Read 16 ], single Alu);
        ("movsxd", [ gpr ~access:Write 64; gpr ~access:Read 32 ], single Alu);
        ("lea", [ gpr ~access:Write 32; mem 32 ], single Alu);
        ("lea", [ gpr ~access:Write 64; mem 64 ], single Alu);
        ("mov", [ gpr ~access:Write 16; gpr ~access:Read 16 ], single Alu);
        ("lzcnt", [ gpr ~access:Write 32; gpr ~access:Read 32 ], single Alu);
        ("tzcnt", [ gpr ~access:Write 32; gpr ~access:Read 32 ], single Alu);
        ("popcnt", [ gpr ~access:Write 32; gpr ~access:Read 32 ], single Alu) ]
    @ product2
        (fun m w ->
           [ (m, [ gpr w; gpr ~access:Read w ], single Alu);
             (m, [ gpr w; imm 8 ], single Alu) ])
        [ "bt"; "bts"; "btr"; "btc" ] scalar_widths
    @ List.map (fun w -> ("mov", [ gpr ~access:Write w; imm (min w 32) ], single Alu))
        scalar_widths
  in
  let high8_pool =
    List.concat_map
      (fun m ->
         [ (m, [ gpr_high (); gpr_high ~access:Read () ], quirky (Single Alu) High8);
           (m, [ gpr_high (); gpr ~access:Read 8 ], quirky (Single Alu) High8);
           (m, [ gpr 8; gpr_high ~access:Read () ], quirky (Single Alu) High8);
           (m, [ gpr_high (); imm 8 ], quirky (Single Alu) High8);
           (m, [ gpr_high (); mem 8 ], quirky (With_load (Alu, 1)) High8);
           (m, [ mem ~access:Read_write 8; gpr_high ~access:Read () ],
            quirky (Rmw (Alu, true)) High8) ])
      alu2_mnems
    @ List.map
        (fun m -> (m, [ gpr_high () ], quirky (Single Alu) High8))
        (alu1_mnems @ shift_mnems)
    (* setcc, shifts by cl/imm, exchanges and extensions over high bytes. *)
    @ List.map
        (fun cc -> ("set" ^ cc, [ gpr_high ~access:Write () ], quirky (Single Alu) High8))
        setcc_ccs
    @ List.concat_map
        (fun m ->
           [ (m, [ gpr_high (); imm 8 ], quirky (Single Alu) High8);
             (m, [ gpr_high (); gpr ~access:Read 8 ], quirky (Single Alu) High8) ])
        shift_mnems
    @ [ ("xchg", [ gpr_high (); gpr 8 ], quirky (Multi [ Alu; Alu ]) High8);
        ("xchg", [ gpr_high (); gpr_high () ], quirky (Multi [ Alu; Alu ]) High8);
        ("movzx", [ gpr ~access:Write 32; gpr_high ~access:Read () ],
         quirky (Single Alu) High8);
        ("movzx", [ gpr ~access:Write 64; gpr_high ~access:Read () ],
         quirky (Single Alu) High8);
        ("movsx", [ gpr ~access:Write 32; gpr_high ~access:Read () ],
         quirky (Single Alu) High8);
        ("movsx", [ gpr ~access:Write 64; gpr_high ~access:Read () ],
         quirky (Single Alu) High8);
        ("mov", [ gpr_high ~access:Write (); mem 8 ],
         quirky (Single Alu) High8);
        ("mov", [ mem ~access:Write 8; gpr_high ~access:Read () ],
         quirky (Multi [ Store; Alu ]) High8) ]
  in
  let fp_slow_pool =
    let k = quirky (Single Fp_round) Div_slow in
    let k_load = quirky (With_load (Fp_round, 1)) Div_slow in
    let k_ymm = quirky (Ymm_single Fp_round) Div_slow in
    let k_ymm_load = quirky (Ymm_with_load Fp_round) Div_slow in
    List.concat_map
      (fun m ->
         [ (m, [ xmm ~access:Write (); xmm (); xmm () ], k);
           (m, [ xmm ~access:Write (); xmm (); mem 128 ], k_load);
           (m, [ ymm ~access:Write (); ymm (); ymm () ], k_ymm);
           (m, [ ymm ~access:Write (); ymm (); mem 256 ], k_ymm_load) ])
      fp_slow_mnems
  in
  (* Keep the register and memory cmov forms over the same mnemonics so the
     stage-2 exclusion-by-mnemonic covers both. *)
  let cmov_mnems =
    List.filteri (fun i _ -> i < 8) (List.map (fun cc -> "cmov" ^ cc) setcc_ccs)
  in
  let cmov_rr_pool =
    product
      (fun m w -> (m, [ gpr w; gpr ~access:Read w ], quirky (Single Alu) Pair_unstable))
      cmov_mnems scalar_widths
  in
  let cmov_rm_pool =
    product
      (fun m w -> (m, [ gpr w; mem w ], quirky (With_load (Alu, 1)) Pair_unstable))
      cmov_mnems scalar_widths
  in
  let vcvt_rr_pool =
    vx2 vcvt_mnems (quirky (Single Fp_mul_cmp) Pair_unstable)
    @ sse2op (drop_v vcvt_mnems) (quirky (Single Fp_mul_cmp) Pair_unstable)
  in
  let vcvt_rm_pool =
    List.map
      (fun m -> (m, [ xmm ~access:Write (); mem 128 ], quirky (With_load (Fp_mul_cmp, 1)) Pair_unstable))
      vcvt_mnems
  in
  let aes_rr_pool = vx3 aes_mnems (quirky (Single Fp_mul_cmp) Pair_unstable) in
  let aes_rm_pool = vx3_mem aes_mnems (quirky (With_load (Fp_mul_cmp, 1)) Pair_unstable) in
  let mulpd_rr_pool = vx3 [ "vmulpd"; "vmulsd" ] (quirky (Single Fp_mul_cmp) Pair_unstable) in
  let mulpd_rm_pool =
    vx3_mem [ "vmulpd"; "vmulsd" ] (quirky (With_load (Fp_mul_cmp, 1)) Pair_unstable)
  in
  let blend_rr_pool = vx3_imm blend_mnems (quirky (Single Shuffle) Pair_unstable) in
  let blend_rm_pool = vx3_mem blend_mnems (quirky (With_load (Shuffle, 1)) Pair_unstable) in
  let fma_rr_pool =
    List.map
      (fun m ->
         (m, [ xmm ~access:Read_write (); xmm (); xmm () ],
          quirky (Single Fp_mul_cmp) Fma_lines))
      fma_mnems
  in
  let fma_multi_pool =
    List.concat_map
      (fun m ->
         [ (m, [ xmm ~access:Read_write (); xmm (); mem 128 ],
            quirky (With_load (Fp_mul_cmp, 1)) Fma_lines);
           (m, [ ymm ~access:Read_write (); ymm (); ymm () ], quirky (Ymm_single Fp_mul_cmp) Fma_lines);
           (m, [ ymm ~access:Read_write (); ymm (); mem 256 ],
            quirky (Ymm_with_load Fp_mul_cmp) Fma_lines) ])
      fma_mnems
  in
  let imul_pool =
    List.map (fun w -> ("imul", [ gpr w; gpr ~access:Read w ], quirky (Single Scalar_mul) Mul_anomaly))
      scalar_widths
    @ List.map
        (fun w ->
           ("imul", [ gpr ~access:Write w; gpr ~access:Read w; imm (min w 32) ],
            quirky (Single Scalar_mul) Mul_anomaly))
        scalar_widths
  in
  let imul_mem_pool =
    List.map (fun w -> ("imul", [ gpr w; mem w ], quirky (With_load (Scalar_mul, 1)) Mul_anomaly))
      scalar_widths
    @ List.map
        (fun w ->
           ("imul", [ gpr ~access:Write w; mem w; imm (min w 32) ],
            quirky (With_load (Scalar_mul, 1)) Mul_anomaly))
        scalar_widths
  in
  let microcoded_pool =
    let ms = Ms_microcode in
    List.concat_map
      (fun m ->
         List.map
           (fun w ->
              (m, [ gpr ~access:Write w; gpr ~access:Read w ],
               quirky (Multi (repeat 8 Alu)) ms))
           scalar_widths
         @ List.map
             (fun w ->
                (m, [ gpr ~access:Write w; mem w ],
                 quirky (Multi (Load :: repeat 8 Alu)) ms))
             scalar_widths)
      [ "bsf"; "bsr" ]
    @ vx3 [ "vphaddw"; "vphaddd"; "vphaddsw"; "vphsubw"; "vphsubd"; "vphsubsw" ]
        (quirky (Multi [ Vec_logic; Vec_int_arith; Shuffle; Shuffle ]) ms)
    @ vx3_mem [ "vphaddw"; "vphaddd"; "vphaddsw"; "vphsubw"; "vphsubd"; "vphsubsw" ]
        (quirky (Multi [ Load; Vec_logic; Vec_int_arith; Shuffle; Shuffle ]) ms)
    @ vx3_imm [ "vmpsadbw"; "vdpps"; "vdppd" ]
        (quirky (Multi [ Fp_mul_cmp; Fp_add; Shuffle; Shuffle ]) ms)
    @ vx3_imm [ "vpcmpestri"; "vpcmpestrm"; "vpcmpistri"; "vpcmpistrm" ]
        (quirky (Multi [ Alu; Alu; Fp_mul_cmp; Shuffle; Shuffle; Vec_logic ]) ms)
    @ List.map
        (fun m ->
           (m, [ xmm ~access:Write (); mem 128; xmm () ],
            quirky (Multi [ Load; Load; Shuffle; Shuffle; Alu; Alu ]) ms))
        [ "vgatherdps"; "vgatherqps"; "vgatherdpd"; "vgatherqpd";
          "vpgatherdd"; "vpgatherqd"; "vpgatherdq"; "vpgatherqq" ]
    @ vx3_imm [ "pclmulqdq"; "vpclmulqdq" ]
        (quirky (Multi [ Vec_mul_hard; Vec_mul_hard; Shuffle; Shuffle ]) ms)
    @ List.map
        (fun m -> (m, [], quirky (Multi (repeat 4 Vec_logic)) ms))
        [ "vzeroall"; "vzeroupper"; "emms"; "fninit" ]
    @ List.concat_map
        (fun m ->
           List.map
             (fun w ->
                (m, [ gpr ~access:Write w; gpr ~access:Read w ],
                 quirky (Multi (Load :: repeat 6 Alu)) ms))
             scalar_widths)
        [ "pdep"; "pext" ]
  in
  let unstable_tp_pool =
    let mnems = [ "vpsllvd"; "vpsllvq"; "vpsrlvd"; "vpsrlvq"; "vpsravd" ] in
    vx3 mnems (quirky (Multi [ Vec_shift_imm; Vec_logic ]) Tp_unstable)
    @ vy3 mnems
        (quirky (Multi [ Vec_shift_imm; Vec_shift_imm; Vec_logic; Vec_logic ]) Tp_unstable)
    @ vx3_mem mnems (quirky (Multi [ Load; Vec_shift_imm; Vec_logic ]) Tp_unstable)
  in
  let vec_class_mnems =
    [ (vec_logic3_mnems, Vec_logic); (vec_int_mnems, Vec_int_arith);
      (fp_mul_cmp_mnems, Fp_mul_cmp); (shuffle_mnems, Shuffle);
      (vec_sat_mnems, Vec_sat); (fp_add_mnems, Fp_add);
      (vec_shift_mnems, Vec_shift_imm) ]
  in
  let ymm_vec_pool =
    List.concat_map (fun (mnems, b) -> vy3 mnems (plain (Ymm_single b))) vec_class_mnems
    @ List.map
        (fun m ->
           (m, [ ymm ~access:Write (); ymm (); imm 8 ], plain (Ymm_single Fp_round)))
        fp_round_mnems
  in
  let vec_load_pool =
    List.concat_map
      (fun (mnems, b) -> vx3_mem mnems (plain (With_load (b, 1))))
      vec_class_mnems
    @ List.map
        (fun m ->
           (m, [ xmm ~access:Write (); mem 128; imm 8 ],
            plain (With_load (Fp_round, 1))))
        fp_round_mnems
  in
  let ymm_vec_load_pool =
    List.concat_map
      (fun (mnems, b) -> vy3_mem mnems (plain (Ymm_with_load b)))
      vec_class_mnems
    @ List.map
        (fun m ->
           (m, [ ymm ~access:Write (); mem 256; imm 8 ],
            plain (Ymm_with_load Fp_round)))
        fp_round_mnems
  in
  let scalar_load_pool =
    product
      (fun m w -> (m, [ gpr w; mem w ], plain (With_load (Alu, 1))))
      alu2_mnems scalar_widths
    @ product
        (fun m w -> (m, [ gpr w; mem w ], plain (With_load (Alu, 1))))
        [ "bt"; "lzcnt"; "tzcnt"; "popcnt" ] scalar_widths
  in
  let rmw_pool =
    product2
      (fun m w ->
         [ (m, [ mem ~access:Read_write w; gpr ~access:Read w ], plain (Rmw (Alu, w <= 32)));
           (m, [ mem ~access:Read_write w; imm (min w 32) ], plain (Rmw (Alu, w <= 32))) ])
      (List.filter (fun m -> m <> "test" && m <> "cmp") alu2_mnems)
      [ 8; 16; 32; 64 ]
    @ product2
        (fun m w ->
           [ (m, [ mem ~access:Read_write w; imm 8 ], plain (Rmw (Alu, w <= 32)));
             (m, [ mem ~access:Read_write w; gpr ~access:Read 8 ],
              plain (Rmw (Alu, w <= 32))) ])
        shift_mnems [ 8; 16; 32; 64 ]
    @ product
        (fun m w -> (m, [ mem ~access:Read_write w ], plain (Rmw (Alu, w <= 32))))
        alu1_mnems [ 8; 16; 32; 64 ]
  in
  let store_scalar_pool =
    List.map
      (fun w -> ("mov", [ mem ~access:Write w; gpr ~access:Read w ], plain Store_scalar))
      [ 8; 16; 32; 64 ]
  in
  let store_vec_pool =
    List.map
      (fun m -> (m, [ mem ~access:Write 128; xmm () ], plain Store_vec))
      [ "vmovaps"; "vmovapd"; "vmovdqa"; "vmovups"; "vmovupd"; "vmovdqu" ]
  in
  let store_vec_ymm_pool =
    List.map
      (fun m -> (m, [ mem ~access:Write 256; ymm () ], plain Store_vec_ymm))
      [ "vmovaps"; "vmovapd"; "vmovdqa" ]
  in
  let misc_multi_pool =
    List.map
      (fun w -> ("xchg", [ gpr w; gpr w ], plain (Multi [ Alu; Alu ])))
      scalar_widths
    @ product
        (fun m w ->
           (m, [ gpr w; gpr ~access:Read w; imm 8 ], plain (Multi [ Alu; Alu ])))
        [ "shld"; "shrd" ] [ 32; 64 ]
    @ List.map
        (fun m ->
           (m, [ ymm ~access:Read_write (); ymm (); xmm (); imm 8 ],
            plain (Multi [ Shuffle; Shuffle ])))
        [ "vinsertf128"; "vinserti128"; "vperm2f128"; "vperm2i128" ]
    @ List.map
        (fun m ->
           (m, [ xmm ~access:Write (); ymm (); imm 8 ], plain (Multi [ Shuffle; Shuffle ])))
        [ "vextractf128"; "vextracti128" ]
    @ [ ("movbe", [ gpr ~access:Write 32; mem 32 ], plain (Multi [ Load; Alu ]));
        ("movbe", [ gpr ~access:Write 64; mem 64 ], plain (Multi [ Load; Alu ]));
        ("movbe", [ mem ~access:Write 32; gpr ~access:Read 32 ], plain (Multi [ Alu; Store ]));
        ("movbe", [ mem ~access:Write 64; gpr ~access:Read 64 ], plain (Multi [ Alu; Store ]));
        ("vmaskmovps", [ xmm ~access:Write (); xmm (); mem 128 ], plain (Multi [ Load; Shuffle ]));
        ("vmaskmovpd", [ xmm ~access:Write (); xmm (); mem 128 ], plain (Multi [ Load; Shuffle ])) ]
    @ List.map
        (fun m ->
           (m, [ gpr ~access:Write 32; xmm (); imm 8 ], plain (Multi [ Shuffle; Alu ])))
        [ "vpextrb"; "vpextrw"; "vpextrd"; "vpextrq" ]
    @ List.map
        (fun m ->
           (m, [ xmm ~access:Write (); xmm (); gpr ~access:Read 32; imm 8 ],
            plain (Multi [ Alu; Shuffle ])))
        [ "vpinsrb"; "vpinsrw"; "vpinsrd"; "vpinsrq" ]
  in
  [ (* --- §4.1.2: excluded when benchmarked individually (657 total) --- *)
    { bname = "excluded/zero-uop"; target = 16;
      pool =
        [ ("nop", [], plain Nullary);
          ("fnop", [], plain Nullary);
          ("nop", [ gpr ~access:Read 16 ], plain Nullary);
          ("nop", [ gpr ~access:Read 32 ], plain Nullary);
          ("mov", [ gpr ~access:Write 32; gpr ~access:Read 32 ], plain Nullary);
          ("mov", [ gpr ~access:Write 64; gpr ~access:Read 64 ], plain Nullary) ] };
    { bname = "excluded/fp-slow"; target = 240; pool = fp_slow_pool };
    { bname = "excluded/mov64-imm"; target = 1;
      pool = [ ("mov", [ gpr ~access:Write 64; imm 64 ],
                quirky (Single Alu) Imm64_unreliable) ] };
    { bname = "excluded/high-byte"; target = 400; pool = high8_pool };
    (* --- §4.2: excluded in pairing experiments (436 total) --- *)
    { bname = "unstable-pair/cmov-rr"; target = 24; pool = cmov_rr_pool };
    { bname = "unstable-pair/cmov-rm"; target = 72; pool = cmov_rm_pool };
    { bname = "unstable-pair/vcvt-rr"; target = 24; pool = vcvt_rr_pool };
    { bname = "unstable-pair/vcvt-rm"; target = 56; pool = vcvt_rm_pool };
    { bname = "unstable-pair/aes-rr"; target = 8; pool = aes_rr_pool };
    { bname = "unstable-pair/aes-rm"; target = 16; pool = aes_rm_pool };
    { bname = "unstable-pair/mulpd-rr"; target = 8; pool = mulpd_rr_pool };
    { bname = "unstable-pair/mulpd-rm"; target = 12; pool = mulpd_rm_pool };
    { bname = "unstable-pair/blend-rr"; target = 16; pool = blend_rr_pool };
    { bname = "unstable-pair/blend-rm"; target = 8; pool = blend_rm_pool };
    { bname = "unstable-pair/fma-rr"; target = 48; pool = fma_rr_pool };
    { bname = "unstable-pair/fma-multi"; target = 144; pool = fma_multi_pool };
    (* --- Table 1: blocking-instruction classes (563 total) --- *)
    { bname = "blocking/alu"; target = 234; pool = alu_rr_pool };
    { bname = "blocking/vec-logic"; target = 21;
      pool =
        vx3 vec_logic3_mnems (plain (Single Vec_logic))
        @ vx2 vec_move_mnems (plain (Single Vec_logic))
        @ sse2op (drop_v vec_logic3_mnems) (plain (Single Vec_logic))
        @ sse2op (drop_v vec_move_mnems) (plain (Single Vec_logic)) };
    { bname = "blocking/vec-int"; target = 30;
      pool =
        vx3 vec_int_mnems (plain (Single Vec_int_arith))
        @ sse2op (drop_v vec_int_mnems) (plain (Single Vec_int_arith)) };
    { bname = "blocking/fp-mul-cmp"; target = 143;
      pool =
        vx3 fp_mul_cmp_mnems (plain (Single Fp_mul_cmp))
        @ sse2op (drop_v fp_mul_cmp_mnems) (plain (Single Fp_mul_cmp))
        @ sse2op_imm [ "cmpps"; "cmppd"; "cmpss"; "cmpsd" ]
            (plain (Single Fp_mul_cmp))
        @ sse2op
            [ "pmullw"; "pmulhw"; "pmulhuw"; "pmaddwd"; "pmulhrsw" ]
            (plain (Single Fp_mul_cmp)) };
    { bname = "blocking/shuffle"; target = 50;
      pool =
        vx2 [ "vbroadcastss" ] (plain (Single Shuffle))
        @ vx3 shuffle_mnems (plain (Single Shuffle))
        @ sse2op (drop_v shuffle_mnems) (plain (Single Shuffle)) };
    { bname = "blocking/vec-sat"; target = 17;
      pool =
        vx3 vec_sat_mnems (plain (Single Vec_sat))
        @ sse2op (drop_v vec_sat_mnems) (plain (Single Vec_sat)) };
    { bname = "blocking/fp-add"; target = 10;
      pool =
        vx3 fp_add_mnems (plain (Single Fp_add))
        @ sse2op (drop_v fp_add_mnems) (plain (Single Fp_add)) };
    { bname = "blocking/load"; target = 6;
      pool =
        [ ("mov", [ gpr ~access:Write 32; mem 32 ], plain (Single Load));
          ("mov", [ gpr ~access:Write 64; mem 64 ], plain (Single Load));
          ("movzx", [ gpr ~access:Write 32; mem 8 ], plain (Single Load));
          ("movzx", [ gpr ~access:Write 32; mem 16 ], plain (Single Load));
          ("movsx", [ gpr ~access:Write 64; mem 32 ], plain (Single Load));
          ("movsxd", [ gpr ~access:Write 64; mem 32 ], plain (Single Load)) ] };
    { bname = "blocking/vec-shift"; target = 27;
      pool =
        vx3 vec_shift_mnems (plain (Single Vec_shift_imm))
        @ List.map
            (fun m -> (m, [ xmm ~access:Write (); xmm (); imm 8 ], plain (Single Vec_shift_imm)))
            (vec_shift_mnems @ [ "vpslldq"; "vpsrldq" ]) };
    { bname = "blocking/vec-mul-hard"; target = 10;
      pool = vx3 vec_mul_hard_mnems (quirky (Single Vec_mul_hard) Vec_mul_slow) };
    { bname = "blocking/scalar-mul"; target = 9; pool = imul_pool };
    { bname = "blocking/fp-round"; target = 4;
      pool =
        List.map
          (fun m -> (m, [ xmm ~access:Write (); xmm (); imm 8 ], plain (Single Fp_round)))
          fp_round_mnems };
    { bname = "blocking/vec-to-gpr"; target = 2;
      pool =
        [ ("vmovd", [ xmm ~access:Write (); gpr ~access:Read 32 ],
           quirky (Single Vec_to_gpr) Gpr_cross);
          ("vmovq", [ xmm ~access:Write (); gpr ~access:Read 64 ],
           quirky (Single Vec_to_gpr) Gpr_cross) ] };
    (* --- §4.3: multi-µop schemes excluded with problematic mnemonics --- *)
    { bname = "excluded-mnemonic/imul-mem"; target = 12; pool = imul_mem_pool };
    { bname = "excluded-mnemonic/vec-mul-hard-mem"; target = 25;
      pool = vx3_mem vec_mul_hard_mnems (quirky (With_load (Vec_mul_hard, 1)) Vec_mul_slow) };
    { bname = "excluded-mnemonic/vec-to-gpr-multi"; target = 10;
      pool =
        [ ("vmovd", [ gpr ~access:Write 32; xmm () ],
           quirky (Multi [ Vec_to_gpr; Alu ]) Gpr_cross);
          ("vmovq", [ gpr ~access:Write 64; xmm () ],
           quirky (Multi [ Vec_to_gpr; Alu ]) Gpr_cross);
          ("vmovd", [ mem ~access:Write 32; xmm () ],
           quirky (Multi [ Vec_to_gpr; Store ]) Gpr_cross);
          ("vmovq", [ mem ~access:Write 64; xmm () ],
           quirky (Multi [ Vec_to_gpr; Store ]) Gpr_cross) ] };
    (* --- §4.4: microcoded and unstable schemes --- *)
    { bname = "microcoded"; target = 146; pool = microcoded_pool };
    { bname = "unstable-tp"; target = 119; pool = unstable_tp_pool };
    (* --- §4.4: regular decomposition patterns (731 total) --- *)
    { bname = "regular/ymm"; target = 172; pool = ymm_vec_pool };
    { bname = "regular/vec-load"; target = 167; pool = vec_load_pool };
    { bname = "regular/ymm-load"; target = 120; pool = ymm_vec_load_pool };
    { bname = "regular/scalar-load"; target = 150; pool = scalar_load_pool };
    { bname = "regular/rmw"; target = 122; pool = rmw_pool };
    (* --- remaining multi-µop schemes (281 total) --- *)
    { bname = "store/scalar"; target = 12; pool = store_scalar_pool };
    { bname = "store/vec"; target = 10; pool = store_vec_pool };
    { bname = "store/vec-ymm"; target = 6; pool = store_vec_ymm_pool };
    { bname = "misc-multi"; target = 253; pool = misc_multi_pool } ]

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let fill_bucket ~next_id spec =
  let pool = Array.of_list spec.pool in
  let n = Array.length pool in
  if n = 0 then invalid_arg ("Catalog: empty pool for bucket " ^ spec.bname);
  List.init spec.target (fun i ->
      let mnemonic, operands, klass = pool.(i mod n) in
      let id = next_id () in
      Scheme.make ~id ~mnemonic ~operands ~variant:(i / n) ~klass)

let build specs =
  let counter = ref 0 in
  let next_id () =
    let id = !counter in
    incr counter;
    id
  in
  let buckets =
    List.map (fun spec -> (spec.bname, fill_bucket ~next_id spec)) specs
  in
  let schemes =
    Array.of_list (List.concat_map (fun (_, schemes) -> schemes) buckets)
  in
  let bucket_by_id = Array.make (Array.length schemes) "" in
  List.iter
    (fun (name, members) ->
       List.iter (fun s -> bucket_by_id.(Scheme.id s) <- name) members)
    buckets;
  { schemes; buckets; bucket_by_id }

let zen_plus () = build (bucket_specs ())

let reduced ?(seed = 0) ~per_bucket () =
  let specs =
    List.map
      (fun spec ->
         let pool =
           (* Rotate the pool so different seeds pick different members. *)
           let arr = Array.of_list spec.pool in
           let n = Array.length arr in
           List.init n (fun i -> arr.((i + seed) mod n))
         in
         { spec with target = min spec.target per_bucket; pool })
      (bucket_specs ())
  in
  build specs

let of_list templates =
  build [ { bname = "custom"; target = List.length templates; pool = templates } ]

let size t = Array.length t.schemes
let schemes t = t.schemes

let find t id =
  if id < 0 || id >= Array.length t.schemes then
    invalid_arg ("Catalog.find: bad scheme id " ^ string_of_int id);
  t.schemes.(id)

let bucket_names t = List.map fst t.buckets
let bucket t name = List.assoc name t.buckets
let bucket_of t s = t.bucket_by_id.(Scheme.id s)
