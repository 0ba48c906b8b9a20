% Unification without occur check (the default, as in Prolog) can bind a
% variable to a term that contains it. Such a binding has no finite
% canonical form, so a resolvent that still mentions the variable cannot
% be tabled: the engine stops with a typed "cyclic term" error naming the
% goal that made the binding, instead of overflowing the stack. Setting
% the engine's `occur_check` option makes those unifications fail.
%
% Try:
%   tablog query examples/cyclic.pl 'p(Y)'
%   tablog query examples/cyclic.pl 'r(Y)'

:- table p/1.
p(Y) :- X = f(X), Y = X.

:- table r/1.
r(Y) :- q(Y).
q(X) :- X = f(X).
