% A predicate wider than the Prop-domain cap of 26 variables. Its truth
% table would need 2^27 rows, and the tabled groundness analysis would
% enumerate 2^27 head rows before the body constrains anything. Both
% groundness analyzers refuse it up front with a typed error instead.
%
% Try:
%   tablog ground examples/wide.pl
%   tablog ground examples/wide.pl --direct --domain bdd

p(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13,
  X14, X15, X16, X17, X18, X19, X20, X21, X22, X23, X24, X25, X26) :-
    q(X0).
q(a).
