module Policy = Qnet_online.Policy
module Health = Qnet_faults.Health
module Schedule = Qnet_faults.Schedule

let policy oracle =
  let skeleton = Oracle.skeleton oracle in
  {
    Policy.name = "hier-prim";
    (* The oracle's lazily filled segment cache is hidden mutable
       state, but it can be checkpointed: the cache contents ride in the
       snapshot's policy-state section through the hooks below, so a
       restored run resumes with exactly the warmth the original had (a
       cold cache would diverge — segment reuse is optimistic, and
       warmth can change which corridor wins). *)
    state =
      Some
        {
          Policy.save = (fun () -> Skeleton.export skeleton);
          load =
            (fun g _params doc ->
              if not (g == Oracle.graph oracle) then
                Error "hier policy state: oracle built over a different graph"
              else Skeleton.import skeleton doc);
        };
    route =
      (fun ~exclude ~budget g _params ~capacity ~users ->
        if not (g == Oracle.graph oracle) then
          invalid_arg "Serve.policy: oracle was built over a different graph";
        Oracle.route_users ~exclude ?budget oracle ~capacity ~users);
  }

let attach_health oracle health =
  Health.on_transition health (fun element _transition ->
      match element with
      | Schedule.Switch v -> Oracle.invalidate_switch oracle v
      | Schedule.Link eid -> Oracle.invalidate_link oracle eid)
