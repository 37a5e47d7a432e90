(** Static commutativity checking by symbolic differencing of the two
    interleavings of every member pair of every commset. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis
module S = A.Symexec
module Metadata = Commset_core.Metadata

(** Check every pair of every commset: the verifier's static pass.
    [target_fname] and [loop] identify the hot loop whose induction
    facts feed the symbolic domain. It needs no run of the program, so a
    compile runs it before the trace, whose run records replay instances
    ({!Dynamic}) only when the report leaves a pair to replay. Progress
    goes to the [commset.verify] log source. *)
val run :
  md:Metadata.t ->
  target_fname:string ->
  loop:A.Loops.loop ->
  induction:A.Induction.t ->
  unit ->
  Verdict.report
