module Policy = Qnet_online.Policy
module Tm = Qnet_telemetry.Metrics
open Qnet_core

let c_fallbacks = Tm.counter "flow.serve.fallbacks"

(* The rounding seed must be a pure function of the request (not of
   arrival order or scheduling), so replay and --jobs determinism hold:
   mix the group into the policy seed with a simple splittable hash. *)
let seed_for base users =
  List.fold_left
    (fun acc u -> (acc * 1_000_003) lxor (u + 0x9E3779B9))
    base
    (List.sort compare users)

let policy ?(seed = 0xf10e5) () =
  {
    Policy.name = "flow";
    (* Stateless: the rounding seed is a pure function of the user
       group, so a restored run routes exactly like the original. *)
    state = None;
    route =
      (fun ~exclude ~budget g params ~capacity ~users ->
        match Lp.relax ~exclude ?budget ~capacity g params ~users with
        | Lp.Disconnected | Lp.Infeasible ->
            (* Sound verdicts: no capacity-respecting tree exists under
               this residual state, so no fallback could serve it
               either. *)
            None
        | Lp.Bound bound -> (
            match
              Rounding.round ~seed:(seed_for seed users) ~exclude ?budget g
                params ~capacity ~users ~bound
            with
            | Some tree -> Some tree
            | None ->
                Tm.Counter.incr c_fallbacks;
                Multi_group.prim_for_users ~exclude ?budget g params ~capacity
                  ~users));
  }

let register () = Policy.register "flow" (fun () -> policy ())
