(* The Figure 3 design space, live: one workload under all four FPVM
   construction approaches and all three trap-delivery deployments.

     dune exec examples/approach_compare.exe *)

module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

let () =
  let binary = Workloads.Nas_cg.program ~n:10 ~cg_iters:5 () in
  let instrumented =
    Workloads.Nas_cg.program ~n:10 ~cg_iters:5 ~mode:`Instrumented ()
  in
  let native = Fpvm.Engine.run_native binary in
  Printf.printf "NAS CG (test scale): native run costs %d cycles\n\n"
    native.Fpvm.Engine.cycles;
  Printf.printf "%-26s %-10s %12s %10s %10s\n" "approach" "delivery" "cycles"
    "slowdown" "traps";
  let row name prog approach deployment =
    let config =
      { Fpvm.Engine.default_config with Fpvm.Engine.approach; deployment }
    in
    let r = E_vanilla.run ~config prog in
    assert (r.Fpvm.Engine.output = native.Fpvm.Engine.output);
    Printf.printf "%-26s %-10s %12d %9.0fx %10d\n" name
      ((Fpvm.Engine.front "deployment").Fpvm.Engine.spell config)
      r.Fpvm.Engine.cycles
      (float_of_int r.Fpvm.Engine.cycles /. float_of_int native.Fpvm.Engine.cycles)
      r.Fpvm.Engine.stats.Fpvm.Stats.fp_traps
  in
  row "trap-and-emulate" binary Fpvm.Engine.Trap_and_emulate Trapkern.User_signal;
  row "trap-and-emulate" binary Fpvm.Engine.Trap_and_emulate Trapkern.Kernel_module;
  row "trap-and-emulate" binary Fpvm.Engine.Trap_and_emulate Trapkern.User_to_user;
  row "trap-and-patch" binary Fpvm.Engine.Trap_and_patch Trapkern.User_signal;
  row "static binary transform" binary Fpvm.Engine.Static_transform Trapkern.User_signal;
  row "compiler (IR) transform" instrumented Fpvm.Engine.Static_transform Trapkern.User_signal;
  print_string
    "\nEvery row produced bit-identical program output (asserted): the\n\
     approaches trade overhead structure, not semantics (paper, Fig 3).\n"
