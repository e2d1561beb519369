(** Cycle cost models for the simulated machines.

    The three profiles correspond to the paper's testbeds (Figure 12):
    R815 (4x AMD Opteron 6272), a Dell 7220 (Xeon E3-1505M v6) and an
    R730xd (2x Xeon E5-2695 v3). Instruction costs are generic
    microarchitectural ballpark figures; trap-delivery costs are
    calibrated so user-level delivery is 7-30x more expensive than
    kernel-level (the paper's Figure 14 band) and the user-to-user
    "pipeline interrupt" sits near the cost the paper extrapolates from
    TSX aborts (~100 cycles). *)

type delivery = User_signal | Kernel_module | User_to_user

type t = {
  name : string;
  clock_ghz : float;
  (* instruction costs *)
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
  hw_trap : int;  (** microarchitectural exception + IDT dispatch *)
  kernel_trap : int;  (** kernel-side exception handling *)
  user_delivery : int;  (** signal frame setup + handler + sigreturn *)
  kernel_delivery : int;  (** handler living in the kernel (§6.1) *)
  uu_delivery : int;  (** hypothetical user->user transfer (§6.2) *)
  single_step : int;  (** TF-based single-step round trip *)
  (* FPVM software components *)
  decode_miss : int;  (** Capstone-equivalent decode *)
  decode_hit : int;  (** decode-cache lookup *)
  bind : int;  (** operand binding *)
  emu_dispatch : int;  (** op_map dispatch + box/unbox bookkeeping *)
  patch_check : int;  (** inline pre/postcondition check of a patch *)
  checked_stub : int;  (** static-transform inline check *)
  trace_step : int;
      (** sequence emulation: per-instruction fetch/classify overhead
          while FPVM stays resident after a trap *)
  trace_exit : int;
      (** sequence emulation: context restore when a trace terminates
          and native execution resumes *)
  plan_compile : int;
      (** site specialization: compile a binding plan (superop) on the
          first emulation of a program point *)
  plan_hit : int;
      (** site specialization: plan-table lookup on a revisit, replacing
          bind + dispatch (calibrated near [decode_hit]) *)
  jit_compile : int;
      (** trace JIT: compile a hot trace into a superblock
          (one-time, amortized over every subsequent execution) *)
  jit_enter : int;
      (** trace JIT: block-table lookup + entry guard when a delivery
          lands on a compiled head *)
  jit_step : int;
      (** trace JIT: per-instruction cost inside a compiled superblock
          (replaces [trace_step]; guards are branch-predicted
          compiled-in checks, not table-driven classification) *)
  jit_link : int;
      (** trace JIT: compiled-to-compiled transfer on a trace back-edge
          (replaces a whole trap delivery) *)
  gc_per_word : int;  (** conservative scan, per 8-byte word *)
  gc_per_cell : int;  (** sweep, per arena cell *)
}

val r815 : t
val xeon7220 : t
val r730xd : t

val profiles : t list
(** The three calibrated machines, in the paper's Figure 12 order. *)

val fp_cost : t -> Isa.fp_op -> int

val delivery_cost : t -> delivery -> int
(** Full cost of delivering one FP trap to FPVM's entry point. *)
