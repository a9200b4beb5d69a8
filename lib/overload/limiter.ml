type t = {
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate ~burst =
  if not (rate > 0. && Float.is_finite rate) then
    invalid_arg "Limiter.create: rate must be positive";
  if not (burst >= 1. && Float.is_finite burst) then
    invalid_arg "Limiter.create: burst must be at least 1";
  { rate; burst; tokens = burst; last = 0. }

let refill t ~now =
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
    t.last <- now
  end

let try_take t ~now =
  refill t ~now;
  if t.tokens >= 1. then begin
    t.tokens <- t.tokens -. 1.;
    true
  end
  else false

let tokens t = t.tokens
let rate t = t.rate
let burst t = t.burst

let snapshot t = (t.tokens, t.last)

let restore t (tokens, last) =
  t.tokens <- tokens;
  t.last <- last
