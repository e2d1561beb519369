(* Cycle cost models for the simulated machines.

   The three profiles correspond to the paper's testbeds (Figure 12):
   R815 (4x AMD Opteron 6272), a Dell 7220 (Xeon E3-1505M v6), and an
   R730xd (2x Xeon E5-2695 v3). Instruction costs are generic
   microarchitectural ballpark figures; the trap-delivery costs are
   calibrated to the paper's Figure 14 measurements (user-level delivery
   of an FP exception costs thousands of cycles; kernel-level delivery is
   7-30x cheaper; a user->user "pipeline interrupt" would approach 100
   cycles, cf. their TSX measurement). *)

type delivery = User_signal | Kernel_module | User_to_user

type t = {
  name : string;
  clock_ghz : float;
  fp_add : int;
  fp_mul : int;
  fp_div : int;
  fp_sqrt : int;
  fp_move : int;
  int_op : int;
  mem_op : int;
  branch : int;
  call_ext : int;
  libm_call : int;
  (* trap path *)
  hw_trap : int; (* microarchitectural exception + IDT dispatch *)
  kernel_trap : int; (* kernel-side exception handling *)
  user_delivery : int; (* signal frame setup + handler entry + sigreturn *)
  kernel_delivery : int; (* cost if the handler lives in the kernel *)
  uu_delivery : int; (* hypothetical user->user fast delivery *)
  single_step : int; (* TF-based single-step round trip *)
  (* FPVM software component costs *)
  decode_miss : int; (* Capstone-equivalent decode *)
  decode_hit : int; (* decode cache lookup *)
  bind : int; (* operand binding *)
  emu_dispatch : int; (* op_map dispatch + unbox/box bookkeeping *)
  patch_check : int; (* inline pre/postcondition check of a patch *)
  checked_stub : int; (* static-transform inline check *)
  trace_step : int; (* per-instruction fetch/classify while resident *)
  trace_exit : int; (* context restore when a trace ends (resume native) *)
  plan_compile : int; (* compile a site's binding plan (superop) *)
  plan_hit : int; (* plan-table lookup on a revisit *)
  jit_compile : int; (* compile a hot trace into a superblock *)
  jit_enter : int; (* superblock table lookup + entry guard on delivery *)
  jit_step : int; (* per-instruction cost inside a compiled superblock *)
  jit_link : int; (* compiled-to-compiled transfer on a trace back-edge *)
  gc_per_word : int; (* conservative scan cost per 8-byte word *)
  gc_per_cell : int; (* sweep cost per arena cell *)
}

let r815 =
  { name = "R815";
    clock_ghz = 2.1;
    fp_add = 6; fp_mul = 6; fp_div = 24; fp_sqrt = 30; fp_move = 2;
    int_op = 1; mem_op = 4; branch = 2; call_ext = 30; libm_call = 60;
    hw_trap = 1400; kernel_trap = 2300; user_delivery = 14300;
    kernel_delivery = 1100; uu_delivery = 110; single_step = 3200;
    decode_miss = 9500; decode_hit = 35; bind = 240; emu_dispatch = 700;
    patch_check = 18; checked_stub = 14; trace_step = 22; trace_exit = 380;
    plan_compile = 450; plan_hit = 35;
    jit_compile = 1900; jit_enter = 40; jit_step = 5; jit_link = 48;
    gc_per_word = 2; gc_per_cell = 6 }

let xeon7220 =
  { name = "7220";
    clock_ghz = 3.0;
    fp_add = 4; fp_mul = 4; fp_div = 14; fp_sqrt = 18; fp_move = 1;
    int_op = 1; mem_op = 4; branch = 1; call_ext = 25; libm_call = 50;
    hw_trap = 1100; kernel_trap = 1700; user_delivery = 9000;
    kernel_delivery = 480; uu_delivery = 100; single_step = 2500;
    decode_miss = 7800; decode_hit = 30; bind = 200; emu_dispatch = 620;
    patch_check = 15; checked_stub = 12; trace_step = 17; trace_exit = 290;
    plan_compile = 380; plan_hit = 30;
    jit_compile = 1600; jit_enter = 34; jit_step = 4; jit_link = 40;
    gc_per_word = 2; gc_per_cell = 5 }

let r730xd =
  { name = "R730xd";
    clock_ghz = 2.3;
    fp_add = 4; fp_mul = 4; fp_div = 16; fp_sqrt = 20; fp_move = 1;
    int_op = 1; mem_op = 4; branch = 1; call_ext = 25; libm_call = 55;
    hw_trap = 1200; kernel_trap = 1900; user_delivery = 12100;
    kernel_delivery = 420; uu_delivery = 105; single_step = 2700;
    decode_miss = 8200; decode_hit = 32; bind = 210; emu_dispatch = 650;
    patch_check = 16; checked_stub = 13; trace_step = 18; trace_exit = 310;
    plan_compile = 400; plan_hit = 32;
    jit_compile = 1700; jit_enter = 36; jit_step = 4; jit_link = 42;
    gc_per_word = 2; gc_per_cell = 5 }

let profiles = [ r815; xeon7220; r730xd ]

let fp_cost t (op : Isa.fp_op) =
  match op with
  | Isa.FADD | Isa.FSUB | Isa.FMIN | Isa.FMAX -> t.fp_add
  | Isa.FMUL -> t.fp_mul
  | Isa.FDIV -> t.fp_div
  | Isa.FSQRT -> t.fp_sqrt

(* Full delivery cost of one FP trap up to FPVM entry, by deployment. *)
let delivery_cost t = function
  | User_signal -> t.hw_trap + t.kernel_trap + t.user_delivery
  | Kernel_module -> t.hw_trap + t.kernel_delivery
  | User_to_user -> t.uu_delivery
